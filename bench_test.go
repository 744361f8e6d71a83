// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7). Each Benchmark* function corresponds to one artifact:
//
//	BenchmarkFig6a7_*   — Figure 6a (sensitivities) and Figure 7 (runtimes):
//	                      per-query TSens / Elastic / evaluation timings
//	BenchmarkFig6b      — Figure 6b: per-relation most sensitive tuple of q3
//	BenchmarkTable1_*   — Table 1: the four Facebook queries
//	BenchmarkTable2_*   — Table 2: TSensDP vs PrivSQL per query
//	BenchmarkParamStudy — Section 7.3's ℓ parameter study
//	BenchmarkAblation_* — design-choice ablations called out in DESIGN.md
//
// The absolute numbers (fixture scales 1e-4…1e-2) are laptop-sized; the
// full sweeps live in cmd/experiments.
package tsens

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"tsens/internal/core"
	"tsens/internal/elastic"
	"tsens/internal/experiments"
	"tsens/internal/mechanism"
	"tsens/internal/workload"
	"tsens/internal/yannakakis"
)

const benchSeed = 20200409 // arXiv date of the paper

var (
	benchTPCH     = map[float64]*Database{}
	benchFacebook *Database
)

func tpchDB(scale float64) *Database {
	if db, ok := benchTPCH[scale]; ok {
		return db
	}
	db := workload.TPCHData(scale, benchSeed)
	benchTPCH[scale] = db
	return db
}

func facebookDB() *Database {
	if benchFacebook == nil {
		benchFacebook = workload.FacebookDataSized(120, 1200, 250, benchSeed)
	}
	return benchFacebook
}

// benchSpecTSens measures one TSens run per iteration.
func benchSpecTSens(b *testing.B, s *workload.Spec, db *Database) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.LocalSensitivity(s.Query, db, s.Options())
		if err != nil {
			b.Fatal(err)
		}
		if res.LS < 0 {
			b.Fatal("impossible")
		}
	}
}

func benchSpecElastic(b *testing.B, s *workload.Spec, db *Database) {
	b.Helper()
	an, err := elastic.NewAnalyzer(s.Query, db) // preprocessing untimed, as in the paper
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.LocalSensitivity(s.JoinOrder); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSpecEval(b *testing.B, s *workload.Spec, db *Database) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if s.Decomp != nil {
			_, err = yannakakis.CountGHD(s.Query, db, s.Decomp)
		} else {
			_, err = yannakakis.Count(s.Query, db)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 6a and 7: q1, q2, q3 across scales × {TSens, Elastic, evaluation}.
func BenchmarkFig6a7(b *testing.B) {
	scales := []float64{0.0001, 0.001}
	for _, scale := range scales {
		db := tpchDB(scale)
		for _, s := range workload.TPCH() {
			if s.Name == "q3" && scale > experiments.MaxQ3Scale {
				continue
			}
			spec := s
			b.Run(fmt.Sprintf("%s/scale=%g/TSens", spec.Name, scale), func(b *testing.B) {
				benchSpecTSens(b, spec, db)
			})
			b.Run(fmt.Sprintf("%s/scale=%g/Elastic", spec.Name, scale), func(b *testing.B) {
				benchSpecElastic(b, spec, db)
			})
			b.Run(fmt.Sprintf("%s/scale=%g/Eval", spec.Name, scale), func(b *testing.B) {
				benchSpecEval(b, spec, db)
			})
		}
	}
}

// Figure 6b: most sensitive tuple of every q3 relation.
func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6b(0.001, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1: the four Facebook queries × {TSens, Elastic, evaluation}.
func BenchmarkTable1(b *testing.B) {
	db := facebookDB()
	for _, s := range workload.Facebook() {
		spec := s
		b.Run(spec.Name+"/TSens", func(b *testing.B) { benchSpecTSens(b, spec, db) })
		b.Run(spec.Name+"/Elastic", func(b *testing.B) { benchSpecElastic(b, spec, db) })
		b.Run(spec.Name+"/Eval", func(b *testing.B) { benchSpecEval(b, spec, db) })
	}
}

// Table 2: the two DP mechanisms per query.
func BenchmarkTable2(b *testing.B) {
	for _, s := range workload.All() {
		spec := s
		var db *Database
		if spec.Name == "q1" || spec.Name == "q2" || spec.Name == "q3" {
			db = tpchDB(0.001)
		} else {
			db = facebookDB()
		}
		b.Run(spec.Name+"/TSensDP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(benchSeed + int64(i)))
				_, err := mechanism.TSensDP(spec.Query, db, spec.Options(), spec.PrimaryPrivate,
					mechanism.TSensDPConfig{Epsilon: 1, Bound: spec.SensBound}, rng)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name+"/PrivSQL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(benchSeed + int64(i)))
				_, err := mechanism.PrivSQL(spec.Query, db, spec.Options(), spec.PrimaryPrivate,
					spec.Policy, spec.JoinOrder, mechanism.PrivSQLConfig{Epsilon: 1}, rng)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Section 7.3 parameter study: TSensDP on q* across ℓ values.
func BenchmarkParamStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ParamStudy([]int64{1, 10, 100}, 3,
			experiments.FacebookSize{Nodes: 60, Edges: 400, Circles: 80}, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: Algorithm 1 (path specialization) vs Algorithm 2 (general tree)
// on the same path query — the constant-factor benefit DESIGN.md notes.
func BenchmarkAblation_PathVsTree(b *testing.B) {
	db := tpchDB(0.001)
	s := workload.Q1()
	b.Run("Algorithm1_Path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PathLocalSensitivity(s.Query, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Algorithm2_Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LocalSensitivity(s.Query, db, s.Options()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: exact vs top-k-approximate top/botjoins on the path query
// (Section 5.4 "Efficient approximations").
func BenchmarkAblation_TopK(b *testing.B) {
	db := tpchDB(0.001)
	s := workload.Q1()
	for _, k := range []int{0, 16, 256} {
		k := k
		name := "exact"
		if k > 0 {
			name = fmt.Sprintf("top%d", k)
		}
		b.Run(name, func(b *testing.B) {
			opts := s.Options()
			opts.TopK = k
			for i := 0; i < b.N; i++ {
				if _, err := core.LocalSensitivity(s.Query, db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: TSens vs the naive Theorem 3.1 oracle, the comparison of
// Sections 4.1 and 5.2 (the oracle re-evaluates per candidate).
func BenchmarkAblation_TSensVsNaive(b *testing.B) {
	db := workload.TPCHData(0.00002, benchSeed) // tiny: the oracle is quadratic+
	s := workload.Q1()
	b.Run("TSens", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LocalSensitivity(s.Query, db, s.Options()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NaiveLocalSensitivity(s.Query, db, core.NaiveOptions{MaxCandidates: 5000000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Section 8 claim: elastic sensitivity ignores selections while TSens
// tracks them (the selection study of EXPERIMENTS.md).
func BenchmarkAblation_SelectionStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SelectionStudy(0.0005, benchSeed, []float64{1, 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Section 5.4's top-k approximation across k values.
func BenchmarkAblation_TopKStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TopKStudy(0.0005, benchSeed, []int{0, 4, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionUpdate: one single-tuple update (insert or delete,
// alternating so the database size stays put) followed by reading LS()
// through an incremental session, against the from-scratch
// core.LocalSensitivity the session replaces — on the Table-1-scale
// Facebook fixture across all four evaluation queries.
func BenchmarkSessionUpdate(b *testing.B) {
	db := facebookDB()
	for _, s := range workload.Facebook() {
		spec := s
		rel := spec.PrimaryPrivate
		row := db.Relation(rel).Rows[0].Clone()
		b.Run(spec.Name+"/Session", func(b *testing.B) {
			sess, err := OpenSession(spec.Query, db, SessionOptions{Options: spec.Options()})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					err = sess.Insert(rel, row)
				} else {
					err = sess.Delete(rel, row)
				}
				if err != nil {
					b.Fatal(err)
				}
				res, err := sess.LS()
				if err != nil {
					b.Fatal(err)
				}
				if res.LS < 0 {
					b.Fatal("impossible")
				}
			}
		})
		b.Run(spec.Name+"/Scratch", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.LocalSensitivity(spec.Query, db, spec.Options())
				if err != nil {
					b.Fatal(err)
				}
				if res.LS < 0 {
					b.Fatal("impossible")
				}
			}
		})
	}
}

// BenchmarkServeThroughput: sustained reader queries/sec against a live
// server on the Table-1 Facebook fixture, with a background goroutine
// feeding the update log the whole time. All four evaluation queries are
// registered (multiplexed over one snapshot); each iteration is one LS read
// from a published epoch view, round-robin across the queries. The writer's
// update throughput over the same window is reported as updates/sec.
func BenchmarkServeThroughput(b *testing.B) {
	db := facebookDB()
	stream := GenerateUpdateStream(db, 20000, 0.4, benchSeed)
	srv, err := NewServer(db, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var ids []string
	for _, s := range workload.Facebook() {
		id, _, err := srv.Register(ServerQuery{ID: s.Name, Query: s.Query, Options: s.Options()})
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	feederDone := make(chan struct{})
	go func() {
		// Feed in small appends until told to stop; wrapping past the end
		// re-plays the stream (stale deletes are skipped by the writer).
		// Backpressure keeps the log backlog bounded so the benchmark
		// measures a steady state, not an unbounded queue.
		defer close(feederDone)
		const chunk = 16
		for off := 0; ; off = (off + chunk) % len(stream) {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := srv.Stats(); st.Appended-st.Epoch <= 512 {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			if _, _, err := srv.Append(stream[off:end]); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	startEpoch := srv.Epoch()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			res, _, err := srv.LS(ids[i%len(ids)])
			i++
			if err != nil {
				b.Error(err)
				return
			}
			if res.LS < 0 {
				b.Error("impossible")
				return
			}
		}
	})
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	close(stop)
	<-feederDone
	if elapsed > 0 {
		b.ReportMetric(float64(srv.Epoch()-startEpoch)/elapsed, "updates/sec")
	}
}

// BenchmarkServeManyQueries: per-update drain cost as the number of
// registered queries grows with heavy overlap — the sweep cycles the four
// Facebook queries, so 16 and 128 registrations are both 4 plans, and at
// 128 each plan's 32 copies share its one session. The headline metric is
// ns/update/query: 128 registrations must cost per update what 16 do (one
// propagation per plan, instead of one per registered query).
func BenchmarkServeManyQueries(b *testing.B) {
	db := facebookDB()
	specs := workload.Facebook()
	stream := GenerateUpdateStream(db, 8192, 0.4, benchSeed)
	for _, nq := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("queries=%d", nq), func(b *testing.B) {
			srv, err := NewServer(db, ServerOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for i := 0; i < nq; i++ {
				s := specs[i%len(specs)]
				q := ServerQuery{ID: fmt.Sprintf("%s#%d", s.Name, i), Query: s.Query, Options: s.Options()}
				if _, _, err := srv.Register(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for applied, off := 0, 0; applied < b.N; {
				end := off + 64
				if end > len(stream) {
					end = len(stream)
				}
				if rem := b.N - applied; end-off > rem {
					end = off + rem
				}
				// Wrapping past the end replays the stream; stale deletes
				// are skipped by the writer.
				if _, _, err := srv.Append(stream[off:end]); err != nil {
					b.Fatal(err)
				}
				applied += end - off
				off = end % len(stream)
				// Bounded backlog: measure steady-state drain, not queueing.
				if st := srv.Stats(); st.Appended-st.Epoch > 512 {
					if err := srv.WaitApplied(st.Appended); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := srv.WaitApplied(srv.Stats().Appended); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nq), "ns/update/query")
		})
	}
}

// fanoutMix is the bench's fanout mix over db: per Facebook query (q△, qw,
// q◦, q*) 16 identical copies and 4 copies each of 4 >= selections on the
// first column of its primary private relation, at that column's 25th,
// 50th, 75th and 90th percentile (nearest rank): 128 queries over 20 plans.
func fanoutMix(b *testing.B, db *Database) []ServerQuery {
	var queries []ServerQuery
	for _, s := range workload.Facebook() {
		for c := 0; c < 16; c++ {
			queries = append(queries, ServerQuery{ID: fmt.Sprintf("%s-c%02d", s.Name, c), Query: s.Query, Options: s.Options()})
		}
		atom, _ := s.Query.Atom(s.PrimaryPrivate)
		var col []int64
		for _, t := range db.Relation(s.PrimaryPrivate).Rows {
			col = append(col, t[0])
		}
		slices.Sort(col)
		for _, pm := range []int{250, 500, 750, 900} {
			at := col[(len(col)*pm+999)/1000-1]
			sel := map[string][]Predicate{s.PrimaryPrivate: {{Var: atom.Vars[0], Op: Ge, Value: at}}}
			q, err := NewQuery(s.Name, s.Query.Atoms, sel)
			if err != nil {
				b.Fatal(err)
			}
			for c := 0; c < 4; c++ {
				queries = append(queries, ServerQuery{ID: fmt.Sprintf("%s-ge%d-c%d", s.Name, pm/10, c), Query: q, Options: s.Options()})
			}
		}
	}
	return queries
}

// BenchmarkServeRegister: registering the bench's fanout mix (fanoutMix)
// on a 2-shard server over the paper-scale Facebook data. One iteration
// registers all 128 queries on a new server; building and closing the
// server are not timed, so allocs/op and B/op count registration alone.
func BenchmarkServeRegister(b *testing.B) {
	db := workload.FacebookData(benchSeed)
	queries := fanoutMix(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := NewServer(db, ServerOptions{Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, q := range queries {
			if _, _, err := srv.Register(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		subs := 0
		for _, d := range srv.PlanStats() {
			subs += d.Subscribers
		}
		srv.Close()
		if subs != 20 {
			b.Fatalf("%d sessions for %d queries, want 20 plans", subs, len(queries))
		}
		b.StartTimer()
	}
}

// BenchmarkServeFanoutHeap: the live heap of a 2-shard server holding the
// fanout mix (fanoutMix) over the paper-scale Facebook data, taken as the
// bench takes its live_heap_mb (collect garbage, then read HeapAlloc, less
// the heap before the server was built): right after registration
// (updates=0), and after a deterministic workload.UpdateStream of 2,000
// updates, half of them deletes, appended 64 at a time (updates=2000). It
// reports live-MB; time per op covers building, registering, updating and
// closing one server.
func BenchmarkServeFanoutHeap(b *testing.B) {
	db := workload.FacebookData(benchSeed)
	queries := fanoutMix(b, db)
	for _, n := range []int{0, 2000} {
		ups := workload.UpdateStream(db, n, 0.5, benchSeed)
		b.Run(fmt.Sprintf("updates=%d", n), func(b *testing.B) {
			var live uint64
			for i := 0; i < b.N; i++ {
				base := liveHeapBytes()
				srv, err := NewServer(db, ServerOptions{Shards: 2})
				if err != nil {
					b.Fatal(err)
				}
				for _, q := range queries {
					if _, _, err := srv.Register(q); err != nil {
						b.Fatal(err)
					}
				}
				for lo := 0; lo < len(ups); lo += 64 {
					if _, _, err := srv.Append(ups[lo:min(lo+64, len(ups))]); err != nil {
						b.Fatal(err)
					}
				}
				if err := srv.WaitApplied(int64(len(ups))); err != nil {
					b.Fatal(err)
				}
				if st := srv.Stats(); st.Skipped != 0 {
					b.Fatalf("%d of %d updates skipped", st.Skipped, len(ups))
				}
				live = liveHeapBytes() - base
				srv.Close()
			}
			b.ReportMetric(float64(live)/(1<<20), "live-MB")
		})
	}
}

// liveHeapBytes collects garbage and returns the bytes of live heap objects.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Micro-benchmark: the TupleSensitivities evaluator TSensDP depends on.
func BenchmarkTupleSensitivities(b *testing.B) {
	db := tpchDB(0.001)
	s := workload.Q1()
	fn, err := core.TupleSensitivities(s.Query, db, "CUSTOMER", s.Options())
	if err != nil {
		b.Fatal(err)
	}
	rows := db.Relation("CUSTOMER").Rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fn(rows[i%len(rows)])
	}
}
