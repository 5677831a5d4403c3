// Command bench is the repo's benchmark: one load generator that seeds a
// data directory, runs the real concordd on it as a subprocess, drives it
// over loopback TCP through the client-TM as two workstations do, verifies
// every result and prints every metric by name. bench/run.sh builds concordd
// and this program and runs it; README.md says what the numbers mean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed     = flag.Int64("seed", 1, "derives every payload byte, key choice and arrival time")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: record spans, run the layer ladder and report the per-layer metrics instead of the end-to-end ones")
		concordd = flag.String("concordd", ".bench_build/concordd", "concordd binary (bench/run.sh builds it)")
		scratch  = flag.String("scratch", ".bench_build/run", "directory for the run's data directories, removed afterwards")
		outDir   = flag.String("out", "bench/out", "directory a traced run writes trace-<workload>.json to")
		jsonOut  = flag.String("json", "", "also write the results of the run to this file")
		repeat   = flag.Int("repeat", 0, "run N full sets and compare them against the bounds in -bounds")
		bounds   = flag.String("bounds", "BENCHMARK.json", "the file -repeat reads bounds from")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *describe {
		os.Stdout.Write(benchmarkJSON()) //nolint:errcheck // a failed write to stdout has nowhere to be reported
		return
	}
	if *seconds < 1 {
		fatalf("-seconds %g: the window is at least one second", *seconds)
	}
	if np := runtime.NumCPU(); runtime.GOMAXPROCS(0) > np {
		runtime.GOMAXPROCS(np)
	}
	bin, err := filepath.Abs(*concordd)
	if err != nil {
		fatalf("%v", err)
	}
	if _, err := os.Stat(bin); err != nil {
		fatalf("no concordd at %s (run bench/run.sh, which builds it): %v", bin, err)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fatalf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
		}
	}
	base := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, concordd: bin, scratch: *scratch, outDir: *outDir}

	if *repeat > 0 {
		os.Exit(runRepeat(base, selected, *repeat, *bounds))
	}

	var results []*result
	failed := false
	for i := range selected {
		cfg := base
		cfg.w = &selected[i]
		res, err := runWorkload(cfg)
		if err != nil {
			fatalf("%s: %v", cfg.w.name, err)
		}
		printReport(os.Stdout, res, cfg)
		results = append(results, res)
		failed = failed || !res.correct
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, results, base); err != nil {
			fatalf("%v", err)
		}
	}
	// The last line is the machine-readable result: of the one workload, or
	// keyed by workload when several ran.
	var last any
	if len(results) == 1 {
		last = resultLine(results[0], base.trace)
	} else {
		all := map[string]any{}
		for _, r := range results {
			all[r.workload] = resultLine(r, base.trace)
		}
		last = all
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// resultLine is the object the driver reads off the last line of output.
func resultLine(r *result, trace bool) map[string]any {
	metrics := r.e2e
	if trace {
		metrics = r.layers
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
}
