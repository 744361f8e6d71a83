package main

import (
	"fmt"
	"runtime"
	"time"

	"tsens/internal/core"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// tpchScale is the TPC-H scale factor of solve's q1–q3 database.
const tpchScale = 0.001

// solveDatasets is how many database pairs (TPC-H for q1–q3, ego network
// for the rest) a solve run generates from its seed and cycles through in
// turn. Solve time differs from one generated dataset to the next by about
// as much as the benchmark's bounds; cycling through several keeps a run's
// medians from hinging on one dataset.
const solveDatasets = 4

// warmPasses is how many passes over the datasets run before the measured
// phase; each dataset's first answers are the reference every later cycle
// on it must reproduce.
const warmPasses = 2

// cycleRefs is how many times the reference is timed before each cycle.
const cycleRefs = 2

// cycleSample is one solve cycle: every paper query solved from scratch.
type cycleSample struct {
	d       time.Duration
	solves  []time.Duration // per query, in workload.All order
	allocMB float64         // heap allocated during the cycle (traced cycles only)
	refs    refTimes        // the reference's times just before the cycle
}

// runSolve runs the paper's algorithm alone: closed-loop cycles of
// core.LocalSensitivity over all seven paper queries, on one goroutine.
func runSolve(e *env) (*result, error) {
	tl := &tally{}
	kernel := newRefKernel()
	baseHeap := liveHeap()
	specs := workload.All()
	// dbs[d][i] is the database query i runs on in dataset d.
	dbs := make([][]*relation.Database, solveDatasets)
	var setups []float64
	refs := startRefLoop(kernel)
	defer refs.end()
	setupStart := time.Now()
	for spent := time.Duration(0); len(setups) < minSetups || spent < minSetupTime; {
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		for d := range dbs {
			seed := e.seed*solveDatasets + int64(d)
			tp, fb := workload.TPCHData(tpchScale, seed), workload.FacebookData(seed)
			dbs[d] = make([]*relation.Database, len(specs))
			for i := range specs {
				dbs[d][i] = fb
				if i < len(workload.TPCH()) {
					dbs[d][i] = tp
				}
			}
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	refs.end()
	setupRefs := refs.between(setupStart, time.Now())

	var spans *spanLog
	if e.trace {
		spans = newSpanLog(time.Now())
	}
	first := make([][]*core.Result, solveDatasets)
	for d := range first {
		first[d] = make([]*core.Result, len(specs))
	}
	var cycles int
	cycle := func(traced bool) cycleSample {
		d := cycles % solveDatasets
		cycles++
		// The reference is timed between cycles, with the previous cycle's
		// garbage collected, so that nothing of the program runs beside it.
		runtime.GC()
		c := cycleSample{solves: make([]time.Duration, len(specs))}
		for i := 0; i < cycleRefs; i++ {
			c.refs = append(c.refs, kernel.measure())
		}
		var m0 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		parent := spans.id()
		start := time.Now()
		for i, s := range specs {
			t0 := time.Now()
			res, err := core.LocalSensitivity(s.Query, dbs[d][i], s.Options())
			t1 := time.Now()
			c.solves[i] = t1.Sub(t0)
			spans.add("core."+s.Name, parent, uint64(cycles), t0, t1)
			if !tl.check(err == nil, "solve %s: %v", s.Name, err) {
				continue
			}
			ref := first[d][i]
			if ref == nil {
				first[d][i] = res
				continue
			}
			tl.check(sameAnswer(res.Count, res, ref), "cycle %d, %s on dataset %d: count %d LS %d, first cycle count %d LS %d",
				cycles, s.Name, d, res.Count, res.LS, ref.Count, ref.LS)
		}
		end := time.Now()
		c.d = end.Sub(start)
		if parent != 0 {
			spans.record(parent, "cycle", 0, uint64(cycles), start, end)
		}
		if traced {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		}
		return c
	}
	for i := 0; i < warmPasses*solveDatasets; i++ {
		cycle(false)
	}
	// A phase runs whole passes, so every dataset weighs the same in it.
	phase := func(end time.Time, traced bool) []cycleSample {
		var cs []cycleSample
		for time.Now().Before(end) || cycles%solveDatasets != 0 {
			cs = append(cs, cycle(traced))
		}
		return cs
	}
	u0 := takeUsage()
	measured := phase(u0.at.Add(e.seconds), false)
	u1 := takeUsage()
	u2 := u1
	failedBefore := tl.failed.Load()
	var traced []cycleSample
	if e.trace {
		spans.on.Store(true)
		traced = phase(u1.at.Add(e.seconds), true)
		spans.on.Store(false)
		u2 = takeUsage()
	}
	heapMB := float64(liveHeap()-baseHeap) / (1 << 20)
	runtime.KeepAlive(dbs)
	runtime.KeepAlive(kernel) // counted in the baseline
	fmt.Fprintf(e.log, "bench: solve: setup %.3fs, %d measured cycles\n", median(newDist(setups)), len(measured))

	cycleDist := func(cs []cycleSample) dist {
		var ds []time.Duration
		for _, c := range cs {
			ds = append(ds, c.d)
		}
		return durations(ds, time.Millisecond)
	}
	solveDist := func(cs []cycleSample, q int) dist {
		var ds []time.Duration
		for _, c := range cs {
			if q >= 0 {
				ds = append(ds, c.solves[q])
				continue
			}
			ds = append(ds, c.solves...)
		}
		return durations(ds, time.Millisecond)
	}

	refsOf := func(cs []cycleSample) refTimes {
		var out refTimes
		for _, c := range cs {
			out = append(out, c.refs...)
		}
		return out
	}

	r := &result{Workload: "solve"}
	v, x := values{}, values{}
	cyc := cycleDist(measured)
	scale := refsOf(measured).scale()
	putEndToEnd(v, x, phaseFigures{
		setups: setups, setupRef: setupRefs, visible: cyc, ops: float64(len(measured) * len(specs)),
		usage: [2]usage{u0, u1}, ref: refsOf(measured), heapMB: heapMB,
	})
	putTiming(x, x, "request_ms", solveDist(measured, -1).scaled(scale))

	if e.trace {
		lv := values{}
		for i, s := range specs {
			lv["core.solve_ms_"+s.Name] = solveDist(traced, i).pct(500)
		}
		var alloc float64
		for _, c := range traced {
			alloc += c.allocMB
		}
		if len(traced) > 0 {
			lv["core.alloc_mb_per_cycle"] = alloc / float64(len(traced))
		}
		putRuntime(lv, u1, u2)
		lv["runtime.ref_ms"] = refsOf(traced).ms()
		lv["loadgen.ops"] = float64(len(traced) * len(specs))
		lv["loadgen.ops_failed"] = float64(tl.failed.Load() - failedBefore)
		lv["trace.overhead_pct"] = (cycleDist(traced).pct(500)*refsOf(traced).scale()/(cyc.pct(500)*scale) - 1) * 100
		r.Metrics = lv.emit(perLayer)
		r.Extra = append(v.emit(endToEnd), x.sorted()...)
		r.Spans = spans.all()
	} else {
		r.Metrics = v.emit(endToEnd)
		r.Extra = x.sorted()
	}
	r.finish(tl)
	return r, nil
}
