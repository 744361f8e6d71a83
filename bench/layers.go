package main

import (
	"fmt"
	"runtime"
	"time"
)

// servingTrace is what a traced serving run measured in its traced phase,
// from outside the program: the benchmark's own spans and samples, the
// counting WAL filesystem, the registry's span hook, and /metrics scraped
// at the phase's start and end.
type servingTrace struct {
	ph     phases
	smp    sampled
	spans  []span
	fsys   *countingFS
	regDur []time.Duration

	posts, vis, refresh, release []opSample

	chunk      int
	shards     int
	skipped    int64
	openWriter bool // the writer runs open-loop, so its lateness counts

	overheadPct            float64
	replayUS, replayAllocs float64
	refMS                  float64 // the reference's time in the traced phase
}

// mergeDists pools samples of several dists.
func mergeDists(ds ...dist) dist {
	var all []float64
	for _, d := range ds {
		all = append(all, d...)
	}
	return newDist(all)
}

// inPhase counts the operations due in one phase and how many failed.
func inPhase(ops []opSample, p phases, phase int) (n, failed int) {
	for _, o := range ops {
		if p.of(o.due) == phase {
			n++
			if !o.ok {
				failed++
			}
		}
	}
	return n, failed
}

// layers computes every per-layer metric of a serving workload, and
// reconciles the write path's stages with the end-to-end figures.
func (t *servingTrace) layers() (values, error) {
	v := values{}
	a, b := t.smp.marks[1], t.smp.marks[2]
	elapsed := b.u.at.Sub(a.u.at).Seconds()
	applied := float64(b.epoch - a.epoch)
	hist := func(name, match string) hist { return histBetween(a.prom, b.prom, name, match) }
	delta := func(name string) float64 { return b.prom.family(name, "") - a.prom.family(name, "") }
	us := func(sec float64) float64 { return sec * 1e6 }
	ms := func(sec float64) float64 { return sec * 1e3 }

	ack, ackLate := latencies(t.posts, t.ph, phaseTrace)
	visible, _ := latencies(t.vis, t.ph, phaseTrace)
	read, readLate := latencies(t.refresh, t.ph, phaseTrace)
	rel, relLate := latencies(t.release, t.ph, phaseTrace)
	posts, postsFailed := inPhase(t.posts, t.ph, phaseTrace)
	postedUpdates := float64((posts - postsFailed) * t.chunk)

	// http: time inside ServeHTTP per route, and the server's own ingress
	// trace stage (decode and routing up to the append).
	ingress := hist("tsens_trace_stage_seconds", `stage="ingress"`)
	v["http.ingress_us_p50"] = us(ingress.quantile(0.5))
	v["http.updates_service_us_p50"] = durationsOf(t.spans, "http.updates", time.Microsecond).pct(500)
	v["http.read_service_us_p50"] = mergeDists(durationsOf(t.spans, "http.list", time.Microsecond),
		durationsOf(t.spans, "http.ls", time.Microsecond)).pct(500)
	fresh := durationsOf(t.spans, "http.release.fresh", time.Microsecond)
	replay := durationsOf(t.spans, "http.release.replay", time.Microsecond)
	v["http.release_service_us_p50"] = mergeDists(fresh, replay).pct(500)

	// wal: the counting filesystem and the WAL's histograms.
	bytes, syncs := t.fsys.stats()
	fsync := durations(syncs, time.Microsecond)
	if posts > 0 {
		v["wal.fsyncs_per_request"] = float64(len(syncs)) / float64(posts)
	}
	v["wal.fsync_us_p50"] = fsync.pct(500)
	v["wal.fsync_us_p90"] = fsync.pct(900)
	if postedUpdates > 0 {
		v["wal.write_bytes_per_update"] = float64(bytes) / postedUpdates
	}
	walAppend := hist("tsens_wal_append_seconds", "")
	v["wal.append_us_p50"] = us(walAppend.quantile(0.5))
	ckpt := hist("tsens_wal_checkpoint_seconds", "")
	v["wal.checkpoints"] = delta("tsens_wal_checkpoints_total")
	v["wal.checkpoint_ms_p50"] = ms(ckpt.quantile(0.5))
	v["wal.checkpoint_share"] = ckpt.sum / elapsed

	// serve: drain rounds, shard patches, publishing, the backlog, and
	// registration.
	drain := hist("tsens_serve_drain_round_seconds", "")
	patch := hist("tsens_serve_shard_patch_seconds", "")
	v["serve.drain_rounds_per_s"] = delta("tsens_serve_drain_rounds_total") / elapsed
	v["serve.batch_entries_mean"] = hist("tsens_serve_drain_batch_entries", "").mean()
	v["serve.drain_round_ms_p50"] = ms(drain.quantile(0.5))
	v["serve.drain_round_ms_p90"] = ms(drain.quantile(0.9))
	v["serve.shard_patch_ms_p50"] = ms(patch.quantile(0.5))
	if t.shards > 0 {
		v["serve.shard_busy_share"] = patch.sum / (elapsed * float64(t.shards))
	}
	v["serve.publish_us_p50"] = us(hist("tsens_serve_publish_seconds", "").quantile(0.5))
	if vis := visible.pct(500); vis > 0 {
		wait := vis - ack.pct(500) - v["serve.drain_round_ms_p50"]
		v["serve.queue_wait_ms_est"] = wait
		v["serve.unexplained_share"] = wait / vis
	}
	v["serve.backlog_max"] = float64(t.smp.backlogMax[phaseTrace])
	v["serve.backlog_growth"] = backlogGrowth(t.vis, t.ph)
	reg := durations(t.regDur, time.Millisecond)
	v["serve.register_ms_p50"] = reg.pct(500)
	v["serve.register_ms_max"] = reg.max()
	v["serve.view_ns_p50"] = newDist(t.smp.viewNS).pct(500)
	v["serve.skipped"] = float64(t.skipped)

	// incremental: session timings and counters, the plan stores, and the
	// isolated single-goroutine replay.
	upd := hist("tsens_session_update_seconds", "")
	v["incremental.update_us_p50"] = us(upd.quantile(0.5))
	v["incremental.update_us_p90"] = us(upd.quantile(0.9))
	if applied > 0 {
		v["incremental.session_updates_per_update"] = delta("tsens_session_updates_total") / applied
	}
	v["incremental.rebuilds"] = delta("tsens_session_rebuilds_total")
	nodes := b.prom.family("tsens_plan_nodes_total", "")
	v["incremental.plan_nodes"] = nodes
	v["incremental.plan_nodes_shared"] = b.prom.family("tsens_plan_nodes_shared", "")
	if nodes > 0 {
		v["incremental.plan_fanout_mean"] = b.prom.family("tsens_plan_node_refs_total", "") / nodes
	}
	v["incremental.apply_us_per_update"] = t.replayUS
	v["incremental.allocs_per_update"] = t.replayAllocs

	// mechanism: releases split by the response's fresh flag.
	if n := len(fresh) + len(replay); n > 0 {
		v["mechanism.fresh_release_share"] = float64(len(fresh)) / float64(n)
	}
	v["mechanism.release_fresh_us_p50"] = fresh.pct(500)
	v["mechanism.release_replay_us_p50"] = replay.pct(500)

	putRuntime(v, a.u, b.u)
	v["runtime.ref_ms"] = t.refMS

	lag := mergeDists(readLate, relLate)
	if t.openWriter {
		lag = mergeDists(lag, ackLate)
	}
	v["loadgen.lag_ms_p50"] = lag.pct(500)
	v["loadgen.lag_ms_p99"] = lag.pct(990)
	var ops, failed int
	for _, o := range [][]opSample{t.posts, t.vis, t.refresh, t.release} {
		n, f := inPhase(o, t.ph, phaseTrace)
		ops += n
		failed += f
	}
	v["loadgen.ops"] = float64(ops)
	v["loadgen.ops_failed"] = float64(failed)
	v.putDist("loadgen.ack_ms", ack)
	v.putDist("loadgen.visible_ms", visible)
	v.putDist("loadgen.read_ms", read)
	v.putDist("loadgen.release_ms", rel)
	putTails(v, ack, visible, read, rel)
	v["trace.overhead_pct"] = t.overheadPct
	return v, reconcile(ack.pct(500), visible.pct(500),
		ms(ingress.lowerEdge(0.5)+walAppend.lowerEdge(0.5)), ms(drain.lowerEdge(0.5)))
}

// putRuntime records the Go runtime's share of the CPU spent in GC, the
// process's CPU use against every CPU, and the allocation rate between two
// usage snapshots.
func putRuntime(v values, a, b usage) {
	elapsed := b.at.Sub(a.at).Seconds()
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		v["runtime.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / busy
	}
	v["runtime.cpu_util"] = (b.cpu - a.cpu).Seconds() / (elapsed * float64(runtime.NumCPU()))
	v["runtime.alloc_mb_per_s"] = float64(b.alloc-a.alloc) / (1 << 20) / elapsed
}

// backlogGrowth is the median visibility of the traced phase's last third
// over that of its first third: about 1 when the backlog holds steady,
// growing with it when the server falls behind.
func backlogGrowth(vis []opSample, p phases) float64 {
	third := p.end.Sub(p.trace) / 3
	var first, last []time.Duration
	for _, o := range vis {
		if !o.ok || p.of(o.due) != phaseTrace {
			continue
		}
		switch off := o.due.Sub(p.trace); {
		case off < third:
			first = append(first, o.lat)
		case off >= 2*third:
			last = append(last, o.lat)
		}
	}
	f := durations(first, time.Millisecond).pct(500)
	if f == 0 {
		return 0
	}
	return durations(last, time.Millisecond).pct(500) / f
}

// reconcileSlack is how far the measured stages may exceed the end-to-end
// figure they are part of before the difference counts as a measurement
// bug rather than percentile arithmetic.
const reconcileSlack = 0.10

// reconcile checks that the stages measured inside the write path fit
// inside the end-to-end figures they are part of, all as medians in ms:
// ingress plus WAL append within the ack, and the ack plus one drain round
// within visibility. The stage medians come from histogram buckets, so the
// caller passes each at the lower edge of its bucket: a sum that exceeds
// the end-to-end figure by more than the slack even so is a measurement
// bug, not resolution.
func reconcile(ackMS, visibleMS, ingressAppendMS, drainMS float64) error {
	if ackMS <= 0 || visibleMS <= 0 {
		return fmt.Errorf("no ack or visibility samples")
	}
	if ingressAppendMS > ackMS*(1+reconcileSlack) {
		return fmt.Errorf("ingress + WAL append %.3f ms exceed ack p50 %.3f ms", ingressAppendMS, ackMS)
	}
	if st := ackMS + drainMS; st > visibleMS*(1+reconcileSlack) {
		return fmt.Errorf("ack + drain round %.3f ms exceed visibility p50 %.3f ms", st, visibleMS)
	}
	return nil
}
