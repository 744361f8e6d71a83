package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"tsens/internal/core"
	"tsens/internal/incremental"
	"tsens/internal/mechanism"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/workload"
)

const (
	// paperSeed generates the serving workloads' database: the paper-size
	// ego network the rest of the repository benchmarks (the seed is the
	// paper's arXiv date). A run's own seed drives its update stream. One
	// server holds one database, and ego networks from different seeds
	// differ in per-update cost by more than the benchmark's bounds.
	paperSeed = 20200409
	// A run sets up at least minSetups times and until its set-ups have
	// taken minSetupTime; setup_s is the median. Short set-ups repeat more,
	// so their median does not hinge on one garbage collection, and the
	// reference is timed often enough beside them.
	minSetups    = 3
	minSetupTime = 2 * time.Second
	// warmup precedes the measured phase of every serving workload.
	warmup = 3 * time.Second
	// sampleEvery is the sampler's period (10 Hz).
	sampleEvery = 100 * time.Millisecond
	// throttleHigh and throttleLow bound fanout's backlog: above high
	// pending entries the closed-loop writer waits until at most low.
	throttleHigh, throttleLow = 512, 256
	// refreshEvery and releaseEvery pace mixed's analyst: 250 dashboard
	// refreshes and 25 releases per second.
	refreshEvery = 4 * time.Millisecond
	releaseEvery = 40 * time.Millisecond
)

// servingConfig describes one workload run against the in-process server.
type servingConfig struct {
	durable bool
	chunk   int           // updates per POST /updates body
	every   time.Duration // open-loop POST interval; 0 runs the writer closed-loop
	analyst bool          // mixed's dashboard refreshes and releases
	request int           // the operation reported as request_ms
	queries func(db *relation.Database) []serve.QueryConfig
}

// The operations a serving workload can report as its request.
const (
	requestAck      = iota // POST /updates → 200
	requestRefresh         // one dashboard refresh
	requestRegister        // one Server.Register call during set-up
)

// fanout's request is a registration, not its POSTs: those are an
// in-memory append whose latency is run-queue wait behind the saturated
// shards, and it does not repeat from one run to the next.
var (
	ingestConfig = servingConfig{durable: true, chunk: 16, every: 10 * time.Millisecond, request: requestAck, queries: plainQueries}
	mixedConfig  = servingConfig{chunk: 16, every: 16 * time.Millisecond, analyst: true, request: requestRefresh, queries: privateQueries}
	fanoutConfig = servingConfig{chunk: 64, request: requestRegister, queries: fanoutQueries}
)

// plainQueries registers the paper's four Facebook queries.
func plainQueries(*relation.Database) []serve.QueryConfig {
	var out []serve.QueryConfig
	for _, s := range workload.Facebook() {
		out = append(out, serve.QueryConfig{ID: s.Name, Query: s.Query, Options: s.Options()})
	}
	return out
}

// privateQueries registers the Facebook queries for releases: ε = 0.1 per
// fresh release over the primary private relation, ℓ = the spec's bound,
// and no budget limit.
func privateQueries(*relation.Database) []serve.QueryConfig {
	out := plainQueries(nil)
	for i, s := range workload.Facebook() {
		out[i].Private = s.PrimaryPrivate
		out[i].Release = mechanism.TSensDPConfig{Epsilon: 0.1, Bound: s.SensBound}
	}
	return out
}

// fanoutQueries registers 128 overlapping queries over 20 distinct plans:
// per Facebook query, 16 byte-identical copies (full sharing), and 16
// copies with a >= selection on the first column of its primary private
// relation at that column's 25th, 50th, 75th and 90th percentile, four
// copies per threshold (partial sharing: subtrees without the selected
// atom stay shareable).
func fanoutQueries(db *relation.Database) []serve.QueryConfig {
	var out []serve.QueryConfig
	for _, s := range workload.Facebook() {
		for c := 0; c < 16; c++ {
			out = append(out, serve.QueryConfig{ID: fmt.Sprintf("%s-c%02d", s.Name, c), Query: s.Query, Options: s.Options()})
		}
		atom, _ := s.Query.Atom(s.PrimaryPrivate)
		var vals []float64
		for _, t := range db.Relation(s.PrimaryPrivate).Rows {
			vals = append(vals, float64(t[0]))
		}
		col := newDist(vals)
		for _, pm := range []int{250, 500, 750, 900} {
			sel := map[string][]query.Predicate{s.PrimaryPrivate: {{Var: atom.Vars[0], Op: query.Ge, Value: int64(col.pct(pm))}}}
			q := query.MustNew(s.Name, s.Query.Atoms, sel)
			for c := 0; c < 4; c++ {
				out = append(out, serve.QueryConfig{ID: fmt.Sprintf("%s-ge%d-c%d", s.Name, pm/10, c), Query: q, Options: s.Options()})
			}
		}
	}
	return out
}

// pendingPost is an acknowledged POST waiting to become visible.
type pendingPost struct {
	due time.Time
	to  int64
	req uint64
}

// mark is the state of the run at one phase boundary.
type mark struct {
	u     usage
	epoch int64
	prom  scrape // trace runs only: /metrics at the traced phase's start and end
}

// sampled is what the 10 Hz sampler gathered.
type sampled struct {
	marks      [3]mark // at the measured phase's start, the traced phase's start, and the end
	backlogMax [phaseAfter]int64
	viewNS     []float64
}

// sample runs the sampler until the run's end: at each phase boundary it
// takes a mark (and, in a trace run, scrapes /metrics and switches tracing
// on or off); every 100 ms it records the backlog and, while tracing, times
// one direct Server.View call.
func sample(ph phases, srv *serve.Server, probe string, cl *client, spans *spanLog) sampled {
	var out sampled
	bounds := [3]time.Time{ph.measure, ph.trace, ph.end}
	traced := spans != nil && ph.trace.Before(ph.end)
	metricsRoute := newRoute("GET", "/metrics")
	scrapeNow := func() scrape {
		_, body := cl.do(metricsRoute, nil)
		return parseScrape(body)
	}
	tick := ph.warm.Add(sampleEvery)
	for next := 0; next < len(bounds); {
		if !tick.Before(bounds[next]) {
			time.Sleep(time.Until(bounds[next]))
			m := mark{epoch: srv.Epoch()}
			switch {
			case traced && next == 1:
				m.prom = scrapeNow()
				m.u = takeUsage()
				spans.on.Store(true)
			case traced && next == 2:
				spans.on.Store(false)
				m.u = takeUsage()
				m.prom = scrapeNow()
			default:
				m.u = takeUsage()
			}
			out.marks[next] = m
			next++
			continue
		}
		time.Sleep(time.Until(tick))
		now := time.Now()
		st := srv.Stats()
		if p := ph.of(now); st.Appended-st.Epoch > out.backlogMax[p] {
			out.backlogMax[p] = st.Appended - st.Epoch
		}
		if spans != nil && spans.on.Load() {
			t0 := time.Now()
			_, err := srv.View(probe)
			if err == nil {
				out.viewNS = append(out.viewNS, float64(time.Since(t0).Nanoseconds()))
			}
		}
		tick = tick.Add(sampleEvery)
	}
	return out
}

// releaseOutcome is one POST /queries/{id}/release response.
type releaseOutcome struct {
	Fresh bool    `json:"fresh"`
	Spent float64 `json:"spent"`
}

// runServing runs one serving workload: generate the inputs, set the
// server up repeatedly, drive it through the HTTP handler for the warm-up
// and measured phases, drain, check every output, and report.
func runServing(e *env, name string, c servingConfig) (*result, error) {
	tl := &tally{}
	db := workload.FacebookData(paperSeed)
	period := palindrome(db, halfStream, e.seed)
	bodies := encodeBodies(period, c.chunk)
	cfgs := c.queries(db)

	runFor := warmup + e.seconds
	if e.trace {
		runFor += e.seconds
	}
	// maxPosts bounds the POSTs of one run (the closed-loop writer is far
	// below 400 posts/s); it sizes the sample buffers, which are allocated
	// before the heap baseline so they do not count as server memory.
	maxPosts := int(runFor/time.Second+1) * 400
	if c.every > 0 {
		maxPosts = int(runFor/c.every) + 16
	}
	postSched := &schedule{every: c.every, ops: make([]opSample, 0, maxPosts)}
	visOps := make([]opSample, 0, maxPosts)
	okPosts := make([]int, 0, maxPosts)
	refresh := &schedule{every: refreshEvery}
	release := &schedule{every: releaseEvery}
	if c.analyst {
		refresh.ops = make([]opSample, 0, int(runFor/refreshEvery)+16)
		release.ops = make([]opSample, 0, int(runFor/releaseEvery)+16)
	}
	kernel := newRefKernel()
	baseHeap := liveHeap()

	// Set up repeatedly and keep the last server. Tracing (register spans,
	// the counting WAL filesystem) is installed in trace runs only.
	var spans *spanLog
	var fsys *countingFS
	var regMu sync.Mutex
	var regDur []time.Duration
	if e.trace {
		spans = newSpanLog(time.Now())
		fsys = &countingFS{on: &spans.on, spans: spans}
	}
	var srv *serve.Server
	var dir string
	var setups []float64
	closeServer := func() {
		if srv != nil {
			srv.Close()
			srv = nil
		}
		if dir != "" {
			// Best effort: a leftover stays under the workdir, which the
			// next run does not read.
			_ = os.RemoveAll(dir)
			dir = ""
		}
	}
	defer closeServer()
	var served []servedQuery
	var regLat []time.Duration
	// The reference runs beside the server from the first set-up to the
	// final drain.
	refs := startRefLoop(kernel)
	defer refs.end()
	setupStart := time.Now()
	for spent := time.Duration(0); len(setups) < minSetups || spent < minSetupTime; {
		closeServer()
		runtime.GC() // each set-up starts from the same heap
		opts := serve.Options{}
		if c.durable {
			d, err := os.MkdirTemp(e.workdir, "wal-")
			if err != nil {
				return nil, err
			}
			dir = d
			opts.WALDir = dir
			if fsys != nil {
				opts.WALFS = fsys
			}
		}
		t0 := time.Now()
		s, err := serve.New(db, opts)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		srv = s
		if e.trace {
			srv.Metrics().OnSpan(func(name string, d time.Duration) {
				if name != "serve.register" {
					return
				}
				end := time.Now()
				regMu.Lock()
				regDur = append(regDur, d)
				regMu.Unlock()
				spans.record(spans.next.Add(1), name, 0, 0, end.Add(-d), end)
			})
		}
		served = served[:0]
		for _, cfg := range cfgs {
			t := time.Now()
			id, v, err := srv.Register(cfg)
			if err != nil || v == nil {
				return nil, fmt.Errorf("setup: register %s: %v", cfg.ID, err)
			}
			regLat = append(regLat, time.Since(t))
			served = append(served, servedQuery{id: id, cfg: cfg})
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupEnd := time.Now()
	fmt.Fprintf(e.log, "bench: %s: setup %.3fs, %d queries, %d plans, %d shards\n",
		name, median(newDist(setups)), len(served), len(plans(served)), srv.NumShards())

	api := serve.NewAPI(srv, nil, e.seed|1)
	start := time.Now().Add(10 * time.Millisecond)
	ph := phases{warm: start, measure: start.Add(warmup)}
	ph.trace = ph.measure.Add(e.seconds)
	ph.end = ph.trace
	if e.trace {
		ph.end = ph.trace.Add(e.seconds)
	}

	var wg sync.WaitGroup
	// vis holds every POST of a run, so the writer never waits on the
	// waiter.
	vis := make(chan pendingPost, maxPosts)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range vis {
			err := srv.WaitApplied(p.to)
			done := time.Now()
			spans.add("serve.wait_applied", 0, p.req, p.due, done)
			ok := tl.check(err == nil, "wait for epoch %d: %v", p.to, err)
			visOps = append(visOps, opSample{due: p.due, lat: done.Sub(p.due), ok: ok})
		}
	}()
	var smp sampled
	wg.Add(1)
	go func() {
		defer wg.Done()
		smp = sample(ph, srv, served[0].id, newClient(api), spans)
	}()

	spentSum := map[string]float64{}
	if c.analyst {
		acl := newClient(api)
		listRoute := newRoute("GET", "/queries")
		var lsRoutes, relRoutes []*http.Request
		var ids []string
		for _, q := range served {
			lsRoutes = append(lsRoutes, newRoute("GET", "/queries/"+q.id+"/ls?per_relation=1"))
			relRoutes = append(relRoutes, newRoute("POST", "/queries/"+q.id+"/release"))
			ids = append(ids, q.id)
		}
		var reqID uint64
		refresh.op = func(due time.Time) (time.Time, bool) {
			reqID++
			parent := spans.id()
			t0 := time.Now()
			code, _ := acl.do(listRoute, nil)
			t1 := time.Now()
			spans.add("http.list", parent, reqID, t0, t1)
			ok := tl.check(code == 200, "GET /queries: status %d", code)
			for i, rt := range lsRoutes {
				t0 := time.Now()
				code, _ := acl.do(rt, nil)
				t1 = time.Now()
				spans.add("http.ls", parent, reqID, t0, t1)
				ok = tl.check(code == 200, "GET ls %s: status %d", ids[i], code) && ok
			}
			if parent != 0 {
				spans.record(parent, "refresh", 0, reqID, due, t1)
			}
			return t1, ok
		}
		var k int
		release.op = func(due time.Time) (time.Time, bool) {
			reqID++
			i := k % len(relRoutes)
			k++
			t0 := time.Now()
			code, body := acl.do(relRoutes[i], nil)
			t1 := time.Now()
			if !tl.check(code == 200, "release %s: status %d: %s", ids[i], code, body) {
				return t1, false
			}
			var out releaseOutcome
			if err := json.Unmarshal(body, &out); !tl.check(err == nil, "release %s: %v", ids[i], err) {
				return t1, false
			}
			name := "http.release.replay"
			if out.Fresh {
				name = "http.release.fresh"
				spentSum[ids[i]] += out.Spent
			}
			spans.add(name, 0, reqID, t0, t1)
			return t1, true
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			openLoop(realClock{}, ph.warm, ph.end, refresh, release)
		}()
	}

	// The writer runs on this goroutine.
	wcl := newClient(api)
	postRoute := newRoute("POST", "/updates")
	var posts int
	var lastTo int64
	postSched.op = func(due time.Time) (time.Time, bool) {
		k := posts
		posts++
		t0 := time.Now()
		code, body := wcl.do(postRoute, bodies[k%len(bodies)])
		t1 := time.Now()
		spans.add("http.updates", 0, uint64(k+1), t0, t1)
		if !tl.check(code == 200, "POST /updates: status %d: %s", code, body) {
			return t1, false
		}
		var out struct {
			Accepted int   `json:"accepted"`
			To       int64 `json:"to"`
		}
		err := json.Unmarshal(body, &out)
		if !tl.check(err == nil && out.Accepted == c.chunk && out.To == lastTo+int64(c.chunk),
			"POST /updates: accepted %d to %d after %d (%v)", out.Accepted, out.To, lastTo, err) {
			return t1, false
		}
		lastTo = out.To
		okPosts = append(okPosts, k)
		vis <- pendingPost{due: due, to: out.To, req: uint64(k + 1)}
		return t1, true
	}
	if c.every > 0 {
		openLoop(realClock{}, ph.warm, ph.end, postSched)
	} else {
		// Closed loop: the next POST goes out once the previous one is
		// acknowledged, after waiting out any backlog above the throttle.
		for time.Now().Before(ph.end) {
			if lastTo-srv.Epoch() > throttleHigh {
				tl.check(srv.WaitApplied(lastTo-throttleLow) == nil, "throttle wait")
			}
			due := time.Now()
			done, ok := postSched.op(due)
			postSched.ops = append(postSched.ops, opSample{due: due, lat: done.Sub(due), ok: ok})
		}
	}
	close(vis)
	wg.Wait()
	tl.check(srv.WaitApplied(lastTo) == nil, "final drain to %d", lastTo)
	refs.end()
	setupRefs := refs.between(setupStart, setupEnd)
	measureRefs := refs.between(ph.measure, ph.trace)
	heapMB := float64(liveHeap()-baseHeap) / (1 << 20)
	runtime.KeepAlive(kernel) // counted in the baseline

	// Correctness: the server against the benchmark's own replay of what it
	// sent.
	st := srv.Stats()
	tl.check(st.Skipped == 0, "%d updates skipped: a delete missed a live row", st.Skipped)
	tl.check(st.Appended == lastTo && st.Epoch == lastTo, "stats: appended %d epoch %d, sent %d", st.Appended, st.Epoch, lastTo)
	ref := newReference(db)
	for _, k := range okPosts {
		for j := 0; j < c.chunk; j++ {
			up := period[(k*c.chunk+j)%len(period)]
			if err := ref.apply(up); err != nil {
				tl.check(false, "reference replay: %v", err)
			}
		}
	}
	refDB, err := ref.database()
	if err != nil {
		return nil, err
	}
	checkViews(tl, srv, served, refDB, lastTo)
	if c.analyst {
		for _, info := range srv.Queries() {
			tl.check(math.Abs(info.Spent-spentSum[info.ID]) < 1e-9,
				"query %s: total_spent %g, fresh releases spent %g", info.ID, info.Spent, spentSum[info.ID])
		}
	}
	if c.durable {
		checkReopen(tl, srv, served, dir, lastTo)
		srv = nil // closed by checkReopen
	}
	closeServer()

	r := &result{Workload: name}
	v, x := values{}, values{}
	m0, m1 := smp.marks[0], smp.marks[1]
	visible, _ := latencies(visOps, ph, phaseMeasure)
	putEndToEnd(v, x, phaseFigures{
		setups: setups, setupRef: setupRefs, visible: visible, ops: float64(m1.epoch - m0.epoch),
		usage: [2]usage{m0.u, m1.u}, ref: measureRefs, heapMB: heapMB, offered: c.every > 0,
	})
	// Every other timing of the run is scaled like the gated ones.
	scale := measureRefs.scale()
	scaled := func(ops []opSample) dist {
		d, _ := latencies(ops, ph, phaseMeasure)
		return d.scaled(scale)
	}
	ack, read, rel := scaled(postSched.ops), scaled(refresh.ops), scaled(release.ops)
	request := ack
	switch c.request {
	case requestRefresh:
		request = read
	case requestRegister:
		request = durations(regLat, time.Millisecond).scaled(setupRefs.scale())
	}
	putTiming(x, x, "request_ms", request)
	x.putDist("ack_ms", ack)
	if c.analyst {
		x.putDist("read_ms", read)
		x.putDist("release_ms", rel)
	}
	putTails(x, ack, visible.scaled(scale), read, rel)
	extra := x.sorted()

	if e.trace {
		traceRefs := refs.between(ph.trace, ph.end)
		in := servingTrace{
			ph: ph, smp: smp, spans: spans.all(), fsys: fsys, regDur: regDur,
			posts: postSched.ops, vis: visOps, refresh: refresh.ops, release: release.ops,
			chunk: c.chunk, shards: st.Shards, skipped: st.Skipped, openWriter: c.every > 0,
			refMS: traceRefs.ms(),
		}
		// The headline is request latency, or capacity for the closed-loop
		// writer; overhead is how much worse it reads while tracing, both
		// phases scaled to the nominal machine.
		traceScale := traceRefs.scale()
		if c.every > 0 {
			traced, _ := latencies(postSched.ops, ph, phaseTrace)
			if c.analyst {
				traced, _ = latencies(refresh.ops, ph, phaseTrace)
			}
			in.overheadPct = (traced.pct(500)*traceScale/request.pct(500) - 1) * 100
		} else {
			m2 := smp.marks[2]
			traced := float64(m2.epoch-m1.epoch) / m2.u.at.Sub(m1.u.at).Seconds() / traceScale
			in.overheadPct = (1 - traced/v["throughput_per_s"]) * 100
		}
		in.replayUS, in.replayAllocs, err = replaySessions(db, period, replayUpdates)
		tl.check(err == nil, "isolated session replay: %v", err)
		lv, rerr := in.layers()
		if c.durable || c.analyst {
			tl.check(rerr == nil, "reconciliation: %v", rerr)
		}
		r.Metrics = lv.emit(perLayer)
		r.Extra = v.emit(endToEnd)
		r.Spans = in.spans
	} else {
		r.Metrics = v.emit(endToEnd)
		r.Extra = extra
	}
	r.finish(tl)
	return r, nil
}

// putTails records each timing's p99 with its sample count.
func putTails(x values, ack, visible, read, rel dist) {
	x.putTail("ack_ms", ack)
	x.putTail("visible_ms", visible)
	x.putTail("read_ms", read)
	x.putTail("release_ms", rel)
}

// servedQuery is one registered query.
type servedQuery struct {
	id  string
	cfg serve.QueryConfig
}

// plans groups the registered queries by plan (identical query text).
func plans(served []servedQuery) map[string][]servedQuery {
	out := map[string][]servedQuery{}
	for _, q := range served {
		k := q.cfg.Query.String()
		out[k] = append(out[k], q)
	}
	return out
}

// checkViews compares every registered query's view with a from-scratch
// solve of its plan on the reference database, once per distinct plan.
func checkViews(tl *tally, srv *serve.Server, served []servedQuery, refDB *relation.Database, epoch int64) {
	for _, group := range plans(served) {
		cfg := group[0].cfg
		want, err := core.LocalSensitivity(cfg.Query, refDB, cfg.Options)
		if !tl.check(err == nil, "reference solve of %s: %v", cfg.ID, err) {
			continue
		}
		for _, q := range group {
			v, err := srv.View(q.id)
			if !tl.check(err == nil, "view %s: %v", q.id, err) {
				continue
			}
			tl.check(v.Epoch == epoch, "view %s at epoch %d, want %d", q.id, v.Epoch, epoch)
			tl.check(sameAnswer(v.Count, v.LS, want), "view %s: count %d LS %d, reference count %d LS %d",
				q.id, v.Count, v.LS.LS, want.Count, want.LS)
		}
	}
}

// sameAnswer reports whether a served answer equals a reference solve:
// count, LS, and every relation's maximum tuple sensitivity.
func sameAnswer(count int64, ls *core.Result, want *core.Result) bool {
	if count != want.Count || ls.LS != want.LS {
		return false
	}
	for rel, tr := range want.PerRelation {
		got := ls.PerRelation[rel]
		if got == nil || got.Sensitivity != tr.Sensitivity {
			return false
		}
	}
	return true
}

// checkReopen closes a durable server, reopens its WAL directory with no
// database, and requires the same epoch and identical views.
func checkReopen(tl *tally, srv *serve.Server, served []servedQuery, dir string, epoch int64) {
	before := map[string]*serve.View{}
	for _, q := range served {
		if v, err := srv.View(q.id); err == nil {
			before[q.id] = v
		}
	}
	srv.Close()
	re, err := serve.New(nil, serve.Options{WALDir: dir})
	if !tl.check(err == nil, "reopen %s: %v", dir, err) {
		return
	}
	defer re.Close()
	tl.check(re.WaitApplied(epoch) == nil, "reopened server: wait for %d", epoch)
	st := re.Stats()
	tl.check(st.Epoch == epoch && st.Appended == epoch, "reopened at epoch %d appended %d, want %d", st.Epoch, st.Appended, epoch)
	for _, q := range served {
		v, err := re.View(q.id)
		b := before[q.id]
		if !tl.check(err == nil && b != nil, "reopened view %s: %v", q.id, err) {
			continue
		}
		tl.check(v.Epoch == b.Epoch && sameAnswer(v.Count, v.LS, &core.Result{Count: b.Count, LS: b.LS.LS, PerRelation: b.LS.PerRelation}),
			"reopened view %s differs: epoch %d count %d LS %d, before epoch %d count %d LS %d",
			q.id, v.Epoch, v.Count, v.LS.LS, b.Epoch, b.Count, b.LS.LS)
	}
}

// replayUpdates is how many stream updates the isolated session replay
// applies per query.
const replayUpdates = 20000

// replaySessions applies the first n stream updates to a standalone
// incremental session per Facebook query, on this goroutine alone, and
// returns the time and heap allocations per session update.
func replaySessions(db *relation.Database, period []relation.Update, n int) (usPer, allocsPer float64, err error) {
	var total time.Duration
	var mallocs uint64
	updates := 0
	for _, s := range workload.Facebook() {
		opts := incremental.Options{Options: s.Options(), RebuildTombstoneRatio: serve.DefaultRebuildTombstoneRatio}
		opts.Parallelism = 1
		sess, err := incremental.Open(s.Query, db, opts)
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, up := range period[:n] {
			if up.Insert {
				err = sess.Insert(up.Rel, up.Row)
			} else {
				err = sess.Delete(up.Rel, up.Row)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", s.Name, err)
			}
		}
		total += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		updates += n
	}
	return float64(total) / float64(time.Microsecond) / float64(updates), float64(mallocs) / float64(updates), nil
}
