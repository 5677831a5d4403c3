package main

import (
	"math"
	"math/rand"
	"sort"
	"syscall"
	"time"
)

// samples is a set of latencies in nanoseconds, sorted on first query.
type samples struct {
	ns     []int64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.sorted = false
}

func (s *samples) n() int { return len(s.ns) }

// quantile returns the q-quantile by nearest rank (the smallest sample with
// at least q of the set at or below it), 0 for an empty set.
func (s *samples) quantile(q float64) time.Duration {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
		s.sorted = true
	}
	i := int(math.Ceil(q*float64(len(s.ns)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.ns) {
		i = len(s.ns) - 1
	}
	return time.Duration(s.ns[i])
}

// tailQ is the percentile a "p99" metric reads for a set of n samples: 0.99
// when at least ten samples lie beyond it, otherwise the highest percentile
// that still has ten beyond (a p99 read off fewer is the luck of a handful
// of samples), never below the median.
func tailQ(n int) float64 {
	if n <= 0 {
		return 0.99
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		return 0.99
	}
	if q < 0.5 {
		return 0.5
	}
	return q
}

func (s *samples) p50us() float64 { return us(s.quantile(0.5)) }
func (s *samples) p99us() float64 { return us(s.quantile(tailQ(s.n()))) }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the acceptance driver reads a metric's spread.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based axis, linearly interpolated (and
		// extrapolated past the ends, as Python does for tiny sets)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// rateStep is one leg of an open-loop schedule: arrivals at perSec for dur.
type rateStep struct {
	perSec float64
	dur    time.Duration
}

// poissonSchedule draws the due times (offsets from the schedule's start) of
// Poisson arrivals through consecutive rate steps, conditioned on each step
// holding exactly perSec*dur arrivals: given their number, the arrivals of a
// Poisson process are independent uniform draws over the step. Every seed
// then offers the same amount of work and differs only in when it falls due.
// step[i] names the step each arrival belongs to.
func poissonSchedule(rng *rand.Rand, steps []rateStep) (due []time.Duration, step []int) {
	var base time.Duration
	for i, st := range steps {
		n := int(math.Round(st.perSec * st.dur.Seconds()))
		at := make([]time.Duration, n)
		for k := range at {
			at[k] = base + time.Duration(rng.Float64()*float64(st.dur))
		}
		sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
		for _, t := range at {
			due = append(due, t)
			step = append(step, i)
		}
		base += st.dur
	}
	return due, step
}

// clock is the time source of the open-loop scheduler, so a test can inject
// a stall without sleeping.
type clock interface {
	now() time.Duration // since the schedule's start
	sleepUntil(t time.Duration)
}

// timing is one arrival: when it was due, when it started, when it ended.
type timing struct {
	due, start, end time.Duration
}

// latency is measured from the due time, not from the actual start: a stall
// delays every arrival queued behind it and each of them reports the wait
// (no coordinated omission).
func (t timing) latency() time.Duration { return t.end - t.due }

// lag is how late the generator itself was: the arrival could start once it
// was due and the one before it had ended (prevEnd); what passed after that
// is the generator's doing, not the system's.
func (t timing) lag(prevEnd time.Duration) time.Duration {
	ready := t.due
	if prevEnd > ready {
		ready = prevEnd
	}
	return t.start - ready
}

// runSchedule starts do(i) at due[i], or at once when the previous call
// overran, and never skips an arrival. stop is polled between arrivals; it
// returns how many arrivals ran.
func runSchedule(c clock, due []time.Duration, stop func() bool, do func(i int)) int {
	for i, d := range due {
		if stop != nil && stop() {
			return i
		}
		if c.now() < d {
			c.sleepUntil(d)
		}
		do(i)
	}
	return len(due)
}

// wallClock is the real clock, anchored at t0.
type wallClock struct{ t0 time.Time }

func (w wallClock) now() time.Duration { return time.Since(w.t0) }

// sleepUntil blocks the thread in nanosleep(2) rather than parking the
// goroutine: an idle Go runtime waits in epoll with millisecond granularity,
// which made every arrival about a millisecond late.
func (w wallClock) sleepUntil(t time.Duration) {
	for d := t - w.now(); d > 0; d = t - w.now() {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}
