package main

import "time"

// metricDef names one reported metric. The end-to-end and per-layer lists
// below are the catalog BENCHMARK.json declares (a test holds the two
// equal); every run reports every metric of its list, with 0 for a layer
// that does no work in that workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the gated metrics of an untraced run: what a user of each
// workload sees. Each workload fills them with its own operations (README
// "End-to-end metrics" has the table). Request latency and the p90 of each
// timing are reported beside them but not gated: on a two-CPU machine they
// sit at the edge of run-queue contention and do not repeat from one run to
// the next (CALIBRATION.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"visible_ms_p50", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, named after the module they
// measure.
var perLayer = []metricDef{
	{"http.ingress_us_p50", "us", "lower"},
	{"http.updates_service_us_p50", "us", "lower"},
	{"http.read_service_us_p50", "us", "lower"},
	{"http.release_service_us_p50", "us", "lower"},

	{"wal.fsyncs_per_request", "count", "lower"},
	{"wal.fsync_us_p50", "us", "lower"},
	{"wal.fsync_us_p90", "us", "lower"},
	{"wal.write_bytes_per_update", "B", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.checkpoint_ms_p50", "ms", "lower"},
	{"wal.checkpoint_share", "ratio", "lower"},

	{"serve.drain_rounds_per_s", "1/s", "higher"},
	{"serve.batch_entries_mean", "count", "lower"},
	{"serve.drain_round_ms_p50", "ms", "lower"},
	{"serve.drain_round_ms_p90", "ms", "lower"},
	{"serve.shard_patch_ms_p50", "ms", "lower"},
	{"serve.shard_busy_share", "ratio", "lower"},
	{"serve.publish_us_p50", "us", "lower"},
	{"serve.queue_wait_ms_est", "ms", "lower"},
	{"serve.unexplained_share", "ratio", "lower"},
	{"serve.backlog_max", "count", "lower"},
	{"serve.backlog_growth", "ratio", "lower"},
	{"serve.register_ms_p50", "ms", "lower"},
	{"serve.register_ms_max", "ms", "lower"},
	{"serve.view_ns_p50", "ns", "lower"},
	{"serve.skipped", "count", "lower"},

	{"incremental.update_us_p50", "us", "lower"},
	{"incremental.update_us_p90", "us", "lower"},
	{"incremental.session_updates_per_update", "count", "lower"},
	{"incremental.rebuilds", "count", "lower"},
	{"incremental.plan_nodes", "count", "lower"},
	{"incremental.plan_nodes_shared", "count", "higher"},
	{"incremental.plan_fanout_mean", "count", "higher"},
	{"incremental.apply_us_per_update", "us", "lower"},
	{"incremental.allocs_per_update", "count", "lower"},

	{"core.solve_ms_q1", "ms", "lower"},
	{"core.solve_ms_q2", "ms", "lower"},
	{"core.solve_ms_q3", "ms", "lower"},
	{"core.solve_ms_q4", "ms", "lower"},
	{"core.solve_ms_qw", "ms", "lower"},
	{"core.solve_ms_qo", "ms", "lower"},
	{"core.solve_ms_qstar", "ms", "lower"},
	{"core.alloc_mb_per_cycle", "MB", "lower"},

	{"mechanism.fresh_release_share", "ratio", "lower"},
	{"mechanism.release_fresh_us_p50", "us", "lower"},
	{"mechanism.release_replay_us_p50", "us", "lower"},

	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.cpu_util", "ratio", "lower"},
	{"runtime.alloc_mb_per_s", "MB/s", "lower"},
	{"runtime.ref_ms", "ms", "lower"},

	{"loadgen.lag_ms_p50", "ms", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"loadgen.ops", "count", "higher"},
	{"loadgen.ops_failed", "count", "lower"},
	{"loadgen.ack_ms_p50", "ms", "lower"},
	{"loadgen.ack_ms_p90", "ms", "lower"},
	{"loadgen.visible_ms_p50", "ms", "lower"},
	{"loadgen.visible_ms_p90", "ms", "lower"},
	{"loadgen.read_ms_p50", "ms", "lower"},
	{"loadgen.read_ms_p90", "ms", "lower"},
	{"loadgen.release_ms_p50", "ms", "lower"},
	{"loadgen.release_ms_p90", "ms", "lower"},

	{"tail.ack_ms_p99", "ms", "lower"},
	{"tail.ack_ms_p99.n", "count", "higher"},
	{"tail.visible_ms_p99", "ms", "lower"},
	{"tail.visible_ms_p99.n", "count", "higher"},
	{"tail.read_ms_p99", "ms", "lower"},
	{"tail.read_ms_p99.n", "count", "higher"},
	{"tail.release_ms_p99", "ms", "lower"},
	{"tail.release_ms_p99.n", "count", "higher"},

	{"trace.overhead_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// values collects a run's measurements by name before they are emitted in
// catalog order.
type values map[string]float64

// emit returns the catalog's metrics in order, taking each value from v (0
// when absent).
func (v values) emit(defs []metricDef) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = metric{Name: d.Name, Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// phaseFigures are the raw figures of one untraced run that the end-to-end
// metrics come from.
type phaseFigures struct {
	setups   []float64 // seconds per set-up
	setupRef refTimes  // reference timings between the set-ups
	visible  dist      // ms, in the measured phase
	ops      float64   // operations completed in the measured phase
	usage    [2]usage  // at the measured phase's start and end
	ref      refTimes  // reference timings during the measured phase
	heapMB   float64
	offered  bool // the benchmark set the operation rate, so throughput is not scaled
}

// putEndToEnd records the end-to-end metrics in v, with the timings scaled
// to the nominal machine (speed.go), and in x the extra percentiles, the
// raw values and the reference times they were scaled by.
func putEndToEnd(v, x values, f phaseFigures) {
	setup := median(newDist(f.setups))
	elapsed := f.usage[1].at.Sub(f.usage[0].at).Seconds()
	tput := f.ops / elapsed
	var cpuUS float64
	if f.ops > 0 {
		cpuUS = float64(f.usage[1].cpu-f.usage[0].cpu) / float64(time.Microsecond) / f.ops
	}
	s := f.ref.scale()
	v["setup_s"] = setup * f.setupRef.scale()
	putTiming(v, x, "visible_ms", f.visible.scaled(s))
	v["throughput_per_s"] = tput / s
	if f.offered {
		v["throughput_per_s"] = tput
	}
	v["cpu_us_per_op"] = cpuUS * s
	v["live_heap_mb"] = f.heapMB

	x["raw.setup_s"] = setup
	x["raw.visible_ms_p50"] = f.visible.pct(500)
	x["raw.throughput_per_s"] = tput
	x["raw.cpu_us_per_op"] = cpuUS
	x["ref_ms"] = f.ref.ms()
	x["ref_ms.setup"] = f.setupRef.ms()
}

// putDist records a dist's p50 and p90 under prefix_p50 and prefix_p90.
func (v values) putDist(prefix string, d dist) {
	v[prefix+"_p50"] = d.pct(500)
	v[prefix+"_p90"] = d.pct(900)
}

// putTiming records a timing's p50 in v and, in x, its p90, its sample
// count, and its highest percentile with ten samples beyond it when that
// lies above p90. An ungated timing passes x as v.
func putTiming(v, x values, prefix string, d dist) {
	v[prefix+"_p50"] = d.pct(500)
	x[prefix+"_p90"] = d.pct(900)
	x[prefix+".n"] = float64(len(d))
	if name, val, ok := d.tail(); ok && d.supports(990) {
		x[prefix+"_"+name] = val
	}
}

// putTail records a dist's p99 and its sample count under tail.<name>_p99.
func (v values) putTail(name string, d dist) {
	v["tail."+name+"_p99"] = d.pct(990)
	v["tail."+name+"_p99.n"] = float64(len(d))
}
