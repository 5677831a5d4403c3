package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json at the repo's root is `bench -describe` verbatim.
func TestBenchmarkJSONIsWhatTheProgramDeclares(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the metric and workload tables; regenerate it with `bash bench/run.sh -describe > BENCHMARK.json`")
	}
}

// The limits the acceptance driver puts on BENCHMARK.json.
func TestDeclaredListsKeepTheDriversLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the permitted form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range endToEnd {
		use(m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g, want within (0, 0.25]", m.name, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s in s, lower is better, among the end-to-end metrics")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.unit) {
			t.Errorf("%s: unit %q is outside the permitted form", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better is %q", m.name, m.better)
		}
	}
	for _, m := range perLayer {
		use(m.name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", runSeconds)
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, above 64 KiB", len(benchmarkJSON()))
	}
}

func TestCheckReported(t *testing.T) {
	want := []metricDef{{name: "a", unit: "us"}, {name: "b", unit: "count"}}
	ok := map[string]metric{"a": {1, "us"}, "b": {2, "count"}}
	if err := checkReported(ok, want, "test"); err != nil {
		t.Errorf("complete report refused: %v", err)
	}
	for what, got := range map[string]map[string]metric{
		"missing":    {"a": {1, "us"}},
		"wrong unit": {"a": {1, "ms"}, "b": {2, "count"}},
		"undeclared": {"a": {1, "us"}, "b": {2, "count"}, "c": {3, "us"}},
	} {
		if err := checkReported(got, want, "test"); err == nil {
			t.Errorf("%s metric accepted", what)
		}
	}
}
