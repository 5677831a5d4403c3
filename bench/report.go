package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printReport prints every metric of a run by name with its unit, then the
// sample counts, the verification tally and, for a traced run, the budget.
func printReport(out io.Writer, r *result, cfg runConfig) {
	mode := "end to end, tracing off"
	metrics := r.e2e
	if cfg.trace {
		mode, metrics = "per layer, every other DOP traced", r.layers
	}
	fmt.Fprintf(out, "== %s  seed=%d  window=%gs  (%s)\n", r.workload, r.seed, cfg.seconds, mode)
	for _, k := range sortedKeys(metrics) {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintln(out, "  -- samples and figures defined on this workload only")
	for _, x := range r.extras {
		if x.n > 0 {
			fmt.Fprintf(out, "  %-36s %14.4f %-6s n=%d\n", x.name, x.value, x.unit, x.n)
		} else {
			fmt.Fprintf(out, "  %-36s %14.4f %s\n", x.name, x.value, x.unit)
		}
	}
	fmt.Fprintf(out, "  operations attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, r.correct)
	if r.firstErr != nil {
		fmt.Fprintf(out, "  FIRST ERROR: %v\n", r.firstErr)
	}
	if r.invalid != "" {
		fmt.Fprintf(out, "  RUN INVALID: %s\n", r.invalid)
	}
	for _, b := range r.budgets {
		b.print(out)
	}
	if r.tracePath != "" {
		fmt.Fprintf(out, "  spans written to %s\n", r.tracePath)
	}
}

// stamp says where and on what a results file was produced, once per file.
type stamp struct {
	GitRev    string `json:"git_rev"`
	Host      string `json:"host"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
}

func newStamp() stamp {
	s := stamp{GitRev: "unknown", NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	s.Host, _ = os.Hostname() // empty when the host has no name
	// The driver's checkout is not a git repository; "unknown" is the answer there.
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.GitRev = strings.TrimSpace(string(rev))
	}
	return s
}

// writeResults writes the -json file: one stamp, then every run's metrics.
func writeResults(path string, results []*result, cfg runConfig) error {
	type run struct {
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Invalid   string             `json:"invalid,omitempty"`
		EndToEnd  map[string]metric  `json:"end_to_end,omitempty"`
		PerLayer  map[string]metric  `json:"per_layer,omitempty"`
		Extras    map[string]float64 `json:"extras,omitempty"`
	}
	out := struct {
		Stamp   stamp   `json:"stamp"`
		Seconds float64 `json:"seconds"`
		Traced  bool    `json:"traced"`
		Runs    []run   `json:"runs"`
	}{Stamp: newStamp(), Seconds: cfg.seconds, Traced: cfg.trace}
	for _, r := range results {
		x := map[string]float64{}
		for _, e := range r.extras {
			x[e.name] = e.value
		}
		ru := run{Workload: r.workload, Seed: r.seed, Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Invalid: r.invalid, Extras: x}
		if !cfg.trace {
			ru.EndToEnd = r.e2e
		}
		ru.PerLayer = r.layers
		out.Runs = append(out.Runs, ru)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bound is how far an end-to-end metric may worsen, and which way is worse.
type bound struct {
	better string
	bound  float64
}

// boundsOf reads each end-to-end metric's direction and bound from
// BENCHMARK.json.
func boundsOf(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range file.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	return out, nil
}

// runRepeat runs n full sets (every selected workload once per set, a new
// seed per set) and prints, per workload and metric, the median, quartiles
// and spread against the metric's bound. It fails when a spread exceeds its
// bound or when the medians of the first and second half of the sets differ
// by more than the bound in the worse direction: the two checks the
// acceptance driver makes.
func runRepeat(base runConfig, selected []workload, n int, boundsPath string) int {
	bounds, err := boundsOf(boundsPath)
	if err != nil {
		fatalf("-repeat: %v", err)
	}
	values := map[string]map[string][]float64{} // workload -> metric -> per set
	rc := 0
	for set := 0; set < n; set++ {
		for i := range selected {
			cfg := base
			cfg.w, cfg.seed, cfg.trace = &selected[i], base.seed+int64(set), false
			res, err := runWorkload(cfg)
			if err != nil {
				fatalf("set %d, %s: %v", set+1, cfg.w.name, err)
			}
			fmt.Printf("set %d/%d %-14s seed=%d attempted=%d failed=%d\n", set+1, n, cfg.w.name, cfg.seed, res.attempted, res.failed)
			if !res.correct {
				fmt.Printf("  FAILED verification: %v\n", res.firstErr)
				rc = 1
			}
			if values[cfg.w.name] == nil {
				values[cfg.w.name] = map[string][]float64{}
			}
			for k, m := range res.e2e {
				values[cfg.w.name][k] = append(values[cfg.w.name][k], m.Value)
			}
			// Demoted metrics are watched too, so the README can say why
			// they carry no bound.
			for k, m := range res.layers {
				if strings.HasPrefix(k, "demoted.") {
					values[cfg.w.name][k] = append(values[cfg.w.name][k], m.Value)
				}
			}
		}
	}
	st := newStamp()
	fmt.Printf("\n%d sets at %s on %s (nproc %d, %s), window %gs\n", n, st.GitRev, st.Host, st.NProc, st.GoVersion, base.seconds)
	fmt.Printf("%-14s %-28s %12s %12s %12s %8s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "")
	for _, w := range selected {
		byMetric := values[w.name]
		names := make([]string, 0, len(byMetric))
		for k := range byMetric {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := byMetric[k]
			q1, med, q3 := quartiles(v)
			sp := spread(v)
			b, bounded := bounds[k]
			verdict := ""
			boundText := "-"
			if bounded {
				boundText = fmt.Sprintf("%.3f", b.bound)
				switch {
				case k != "setup_s" && sp > b.bound:
					verdict = "SPREAD ABOVE BOUND"
					rc = 1
				case len(v) >= 4 && worse(v[:len(v)/2], v[len(v)/2:], b.better) > b.bound:
					verdict = "HALVES DISAGREE"
					rc = 1
				case k != "setup_s" && sp > b.bound/3:
					verdict = "above a third of the bound"
				}
			}
			fmt.Printf("%-14s %-28s %12.4f %12.4f %12.4f %8.4f %8s  %s\n", w.name, k, q1, med, q3, sp, boundText, verdict)
		}
	}
	return rc
}

// worse is how much worse the median of b is than that of a, as a share of
// a's median, in the metric's own direction (negative: better).
func worse(a, b []float64, better string) float64 {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return 0
	}
	d := (mb - ma) / ma
	if better == "higher" {
		d = -d
	}
	return d
}
