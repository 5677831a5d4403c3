package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := &samples{}
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s.add(time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := (&samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty set: quantile = %d, want 0", got)
	}
}

// A p99 is only read where ten samples lie beyond it; smaller sets fall back
// to the highest percentile that still has ten beyond.
func TestTailQNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 1 - 10.0/999}, {500, 0.98}, {100, 0.9}, {20, 0.5}, {12, 0.5}} {
		if got := tailQ(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQ(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule itself: at least ten samples strictly beyond the rank read.
		if c.n >= 20 {
			rank := int(math.Ceil(tailQ(c.n) * float64(c.n)))
			if beyond := c.n - rank; beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond rank %d", c.n, beyond, rank)
			}
		}
	}
	s := &samples{}
	for i := 1; i <= 500; i++ {
		s.add(time.Duration(i) * time.Microsecond)
	}
	if got := s.p99us(); got != 490 {
		t.Errorf("p99 of 500 samples reads %g us, want the 98th percentile 490", got)
	}
}

// Reference values from Python: statistics.quantiles(v, n=4) and median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 7, 11, 13, 17}, 6, 11, 15},
	} {
		q1, med, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(med-c.med) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPoissonScheduleFromSeed(t *testing.T) {
	steps := []rateStep{{50, time.Second}, {100, 2 * time.Second}, {150, 2 * time.Second}}
	due1, step1 := poissonSchedule(rand.New(rand.NewSource(7)), steps)
	due2, step2 := poissonSchedule(rand.New(rand.NewSource(7)), steps)
	if !reflect.DeepEqual(due1, due2) || !reflect.DeepEqual(step1, step2) {
		t.Fatal("the same seed gave two schedules")
	}
	due3, _ := poissonSchedule(rand.New(rand.NewSource(8)), steps)
	if reflect.DeepEqual(due1, due3) {
		t.Fatal("another seed gave the same schedule")
	}
	// Every seed offers the same amount of work per step.
	if len(due1) != 50+200+300 || len(due3) != len(due1) {
		t.Fatalf("arrivals: %d and %d, want 550", len(due1), len(due3))
	}
	starts := []time.Duration{0, time.Second, 3 * time.Second, 5 * time.Second}
	for i, d := range due1 {
		if i > 0 && d < due1[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if s := step1[i]; d < starts[s] || d >= starts[s+1] {
			t.Fatalf("arrival %d at %v is marked step %d", i, d, s)
		}
	}
	// Gaps of a Poisson process scatter about as widely as they average.
	var sum, sq float64
	n := 0
	for i := 1; i < len(due1); i++ {
		if step1[i] == 2 && step1[i-1] == 2 {
			g := (due1[i] - due1[i-1]).Seconds()
			sum += g
			sq += g * g
			n++
		}
	}
	mean := sum / float64(n)
	cv := math.Sqrt(sq/float64(n)-mean*mean) / mean
	if cv < 0.8 || cv > 1.2 {
		t.Errorf("coefficient of variation of the gaps = %.2f, want about 1", cv)
	}
}

// fakeClock advances only when told to: by sleeping, or by the work a test
// injects.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration         { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) { c.t = t }

// One arrival stalls. Timed from its own start, every later arrival looks
// fast; timed from when it was due, the arrivals queued behind the stall
// show the wait it imposed on them.
func TestLatencyFromDueTimeUnderStall(t *testing.T) {
	const ms = time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 50 * ms}
	clk := &fakeClock{}
	var got []timing
	ran := runSchedule(clk, due, nil, func(i int) {
		start := clk.now()
		service := 1 * ms
		if i == 1 {
			service = 35 * ms // the stall
		}
		clk.t += service
		got = append(got, timing{due: due[i], start: start, end: clk.now()})
	})
	if ran != len(due) {
		t.Fatalf("ran %d of %d arrivals: none may be skipped", ran, len(due))
	}
	wantLatency := []time.Duration{1 * ms, 35 * ms, 26 * ms, 17 * ms, 8 * ms, 1 * ms}
	wantService := []time.Duration{1 * ms, 35 * ms, 1 * ms, 1 * ms, 1 * ms, 1 * ms}
	prevEnd := time.Duration(0)
	for i, tm := range got {
		if tm.latency() != wantLatency[i] {
			t.Errorf("arrival %d: latency from due time %v, want %v", i, tm.latency(), wantLatency[i])
		}
		if tm.end-tm.start != wantService[i] {
			t.Errorf("arrival %d: service time %v, want %v", i, tm.end-tm.start, wantService[i])
		}
		// The queueing is the system's doing: the generator itself started
		// every arrival the moment it could.
		if lag := tm.lag(prevEnd); lag != 0 {
			t.Errorf("arrival %d: generator lag %v, want 0", i, lag)
		}
		prevEnd = tm.end
	}
}

func TestLagIsTheGeneratorsOwnLateness(t *testing.T) {
	const ms = time.Millisecond
	// Due at 10, the previous arrival ended at 12, started at 12.5.
	if got := (timing{due: 10 * ms, start: 12*ms + 500*time.Microsecond}).lag(12 * ms); got != 500*time.Microsecond {
		t.Errorf("lag behind a busy system = %v, want 0.5ms", got)
	}
	// Due at 10, system idle since 3, started at 10.2.
	if got := (timing{due: 10 * ms, start: 10*ms + 200*time.Microsecond}).lag(3 * ms); got != 200*time.Microsecond {
		t.Errorf("lag behind the schedule = %v, want 0.2ms", got)
	}
}

func TestRunScheduleStops(t *testing.T) {
	clk := &fakeClock{}
	n := 0
	ran := runSchedule(clk, []time.Duration{1, 2, 3, 4}, func() bool { return n == 2 }, func(int) { n++ })
	if ran != 2 || n != 2 {
		t.Errorf("ran %d arrivals (%d calls), want 2", ran, n)
	}
}

func TestWorseFollowsTheMetricsDirection(t *testing.T) {
	a, b := []float64{100, 100, 100}, []float64{110, 110, 110}
	if got := worse(a, b, "lower"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("lower is better, 100 -> 110: worse by %g, want 0.1", got)
	}
	if got := worse(a, b, "higher"); math.Abs(got+0.1) > 1e-9 {
		t.Errorf("higher is better, 100 -> 110: worse by %g, want -0.1", got)
	}
}
