package main

import (
	"encoding/json"
	"fmt"
)

// metricDef declares one metric of BENCHMARK.json. Every run reports every
// end-to-end metric (tracing off) or every per-layer metric (tracing on), on
// every workload: the lists are the benchmark's contract, and a later issue
// cites these names.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is what a designer, or whoever pays for the hosts, sees. A bound
// is at least three times the spread the calibration saw (README), so that
// a rejection means a regression and not a noisy afternoon; metrics that
// would need more than the permitted 0.25 are kept per layer as demoted.*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"checkout_p50_us", "us", "lower", 0.25},
	{"cycle_p50_us", "us", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	{"client_cpu_us_per_op", "us", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.10},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.05},
	{"recovery_s", "s", "lower", 0.25},
	{"server_rss_peak_mb", "MiB", "lower", 0.25},
}

// perLayer is the traced run's list. Layers are this repo's packages, plus
// the spans of the window (trace), the ladder's residual (ladder), the
// subprocess as the kernel sees it (concordd) and the generator itself
// (loadgen).
var perLayer = []metricDef{
	{name: "binenc.delta_us", unit: "us", better: "lower"},
	{name: "binenc.apply_delta_us", unit: "us", better: "lower"},
	{name: "binenc.delta_miss_us", unit: "us", better: "lower"},

	{name: "catalog.encode_us", unit: "us", better: "lower"},
	{name: "catalog.encode_64k_us", unit: "us", better: "lower"},
	{name: "catalog.decode_us", unit: "us", better: "lower"},
	{name: "catalog.decode_64k_us", unit: "us", better: "lower"},
	{name: "catalog.decode_allocs", unit: "count", better: "lower"},
	{name: "catalog.clone_allocs", unit: "count", better: "lower"},
	{name: "catalog.hash_us", unit: "us", better: "lower"},
	{name: "catalog.hash_64k_us", unit: "us", better: "lower"},

	{name: "wal.append_sync_p50_us", unit: "us", better: "lower"},
	{name: "wal.append_sync_p99_us", unit: "us", better: "lower"},
	{name: "wal.syncs_per_append_c2", unit: "ratio", better: "lower"},
	{name: "wal.replay_ms_per_10k", unit: "ms", better: "lower"},

	{name: "lock.acquire_release_ns", unit: "ns", better: "lower"},
	{name: "lock.acquire_release_allocs", unit: "count", better: "lower"},

	{name: "repo.get_encoded_us", unit: "us", better: "lower"},
	{name: "repo.get_encoded_allocs", unit: "count", better: "lower"},
	{name: "repo.checkin_us", unit: "us", better: "lower"},
	{name: "repo.checkin_allocs", unit: "count", better: "lower"},
	{name: "repo.putmeta_us", unit: "us", better: "lower"},
	{name: "repo.open_ms_per_10k", unit: "ms", better: "lower"},
	{name: "repo.checkpoint_ms", unit: "ms", better: "lower"},

	{name: "txn_server.checkout_us", unit: "us", better: "lower"},
	{name: "txn_server.checkout_allocs", unit: "count", better: "lower"},
	{name: "txn_server.checkin_us", unit: "us", better: "lower"},

	{name: "rpc.tcp_echo_p50_us", unit: "us", better: "lower"},
	{name: "rpc.tcp_echo_allocs", unit: "count", better: "lower"},
	{name: "rpc.tcp_echo_64k_p50_us", unit: "us", better: "lower"},
	{name: "rpc.dedup_ns", unit: "ns", better: "lower"},
	{name: "rpc.dedup_allocs", unit: "count", better: "lower"},
	{name: "rpc.twophase_us", unit: "us", better: "lower"},
	{name: "rpc.null_tcp_us", unit: "us", better: "lower"},
	{name: "rpc.checkout_tcp_us", unit: "us", better: "lower"},
	{name: "rpc.checkout_tcp_allocs", unit: "count", better: "lower"},
	{name: "rpc.checkin_tcp_us", unit: "us", better: "lower"},

	{name: "txn_client.checkout_inproc_us", unit: "us", better: "lower"},
	{name: "txn_client.checkout_inproc_allocs", unit: "count", better: "lower"},
	{name: "txn_client.checkin_inproc_us", unit: "us", better: "lower"},
	{name: "txn_client.checkin_inproc_allocs", unit: "count", better: "lower"},
	{name: "txn_client.recovery_point_us", unit: "us", better: "lower"},
	{name: "txn_client.cache_evict_us", unit: "us", better: "lower"},
	{name: "txn_client.not_modified_share", unit: "ratio", better: "higher"},
	{name: "txn_client.delta_share", unit: "ratio", better: "higher"},
	{name: "txn_client.full_share", unit: "ratio", better: "lower"},

	{name: "trace.rpc_us.tm_begin", unit: "us", better: "lower"},
	{name: "trace.rpc_us.tm_checkout", unit: "us", better: "lower"},
	{name: "trace.rpc_us.tm_abort_dop", unit: "us", better: "lower"},
	{name: "trace.calls_per_cycle", unit: "count", better: "lower"},
	{name: "trace.client_self_us.checkout", unit: "us", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},

	{name: "ladder.checkout_concordd_us", unit: "us", better: "lower"},
	{name: "ladder.checkin_concordd_us", unit: "us", better: "lower"},
	{name: "ladder.null_concordd_us", unit: "us", better: "lower"},
	{name: "ladder.rpc_us.tm_stage", unit: "us", better: "lower"},
	{name: "ladder.rpc_us.2pc_prepare", unit: "us", better: "lower"},
	{name: "ladder.rpc_us.2pc_commit", unit: "us", better: "lower"},
	{name: "ladder.client_self_us.checkin", unit: "us", better: "lower"},
	{name: "ladder.checkout_residual_share", unit: "ratio", better: "lower"},
	{name: "ladder.checkin_residual_share", unit: "ratio", better: "lower"},

	{name: "concordd.cpu_user_s", unit: "s", better: "lower"},
	{name: "concordd.cpu_sys_s", unit: "s", better: "lower"},
	{name: "concordd.ctx_switches_per_op", unit: "count", better: "lower"},
	{name: "concordd.open_fds", unit: "count", better: "lower"},
	{name: "concordd.wal_bytes", unit: "B", better: "lower"},
	{name: "concordd.boot_ms", unit: "ms", better: "lower"},

	{name: "loadgen.sched_lag_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.backlog_end", unit: "count", better: "lower"},
	{name: "loadgen.max_rate_in_slo", unit: "1/s", better: "higher"},
	{name: "loadgen.cycle_p50_us_step1", unit: "us", better: "lower"},
	{name: "loadgen.cycle_p50_us_step2", unit: "us", better: "lower"},
	{name: "loadgen.cycle_p50_us_step3", unit: "us", better: "lower"},
	{name: "loadgen.cycle_p99_us_step1", unit: "us", better: "lower"},
	{name: "loadgen.cycle_p99_us_step2", unit: "us", better: "lower"},
	{name: "loadgen.cycle_p99_us_step3", unit: "us", better: "lower"},

	{name: "demoted.checkout_p99_us", unit: "us", better: "lower"},
	{name: "demoted.cycle_p99_us", unit: "us", better: "lower"},
}

// checkReported makes the declared lists binding: a run that did not produce
// a declared metric, produced one under another unit, or produced one nobody
// declared, is a bug in the benchmark and fails the run.
func checkReported(got map[string]metric, want []metricDef, what string) error {
	declared := map[string]bool{}
	for _, d := range want {
		declared[d.name] = true
		m, ok := got[d.name]
		if !ok {
			return fmt.Errorf("%s metric %s was not measured", what, d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("%s metric %s reported in %q, declared in %q", what, d.name, m.Unit, d.unit)
		}
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("%s metric %s is reported but not declared", what, name)
		}
	}
	return nil
}

// runSeconds is the window the driver asks for: with it a run takes about
// 20 s untraced and 28 s traced on the reference host, which keeps the
// driver's 92 runs well inside its time cap.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the tables above, so that the
// file at the repo's root and the program cannot drift apart (a test
// compares them).
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(data, '\n')
}
