package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"tsens/internal/core"
	"tsens/internal/incremental"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// queryOf returns a registered query.
func queryOf(t *testing.T, s *Server, id string) *servedQuery {
	t.Helper()
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	sq := s.queries[id]
	if sq == nil {
		t.Fatalf("query %q not registered", id)
	}
	return sq
}

// planTotals sums the plan-store stats across every shard of the server.
func planTotals(s *Server) incremental.PlanStoreStats {
	var tot incremental.PlanStoreStats
	for _, d := range s.PlanStats() {
		tot.Bases += d.Bases
		tot.Nodes += d.Nodes
		tot.Rows += d.Rows
		tot.SharedNodes += d.SharedNodes
		tot.SharedRows += d.SharedRows
		tot.NodeRefs += d.NodeRefs
		tot.Subscribers += d.Subscribers
	}
	return tot
}

// TestSharedPlansIdenticalQueriesFullShare pins the headline sharing
// property: identical queries share one session, so the store holds one
// subscriber; both answers stay exact, and unregistering either query
// leaves the survivor's answers exact.
func TestSharedPlansIdenticalQueriesFullShare(t *testing.T) {
	for _, drop := range []string{"q1", "q2"} {
		t.Run("drop "+drop, func(t *testing.T) {
			db := testDB(t, 12, 4, 11, "R1", "R2", "R3")
			srv, err := New(db, Options{Shards: 1, Parallelism: 2, BatchSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			for _, id := range []string{"q1", "q2"} {
				if _, _, err := srv.Register(QueryConfig{ID: id, Query: pathQuery(t)}); err != nil {
					t.Fatal(err)
				}
			}
			if queryOf(t, srv, "q1").plan != queryOf(t, srv, "q2").plan {
				t.Fatal("identical queries read different sessions")
			}
			tot := planTotals(srv)
			if tot.Subscribers != 1 || tot.Nodes == 0 || tot.NodeRefs != tot.Nodes || tot.SharedNodes != 0 {
				t.Fatalf("plan totals %+v, want one subscriber holding every node once", tot)
			}

			stream := workload.UpdateStream(db, 40, 0.4, 12)
			verify := func(when string, ids ...string) {
				t.Helper()
				_, to, err := srv.Append(stream)
				if err != nil {
					t.Fatalf("%s: append: %v", when, err)
				}
				if err := srv.WaitApplied(to); err != nil {
					t.Fatalf("%s: wait: %v", when, err)
				}
				cur := replayPrefix(t, db, stream, len(stream))
				db = cur
				stream = workload.UpdateStream(cur, 40, 0.4, to)
				want, err := core.LocalSensitivity(pathQuery(t), cur, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					v, err := srv.View(id)
					if err != nil {
						t.Fatalf("%s: view %s: %v", when, id, err)
					}
					if v.Epoch != to || v.Count != want.Count || v.LS.LS != want.LS {
						t.Fatalf("%s: %s served (%d, %d, %d), scratch (%d, %d, %d)",
							when, id, v.Epoch, v.Count, v.LS.LS, to, want.Count, want.LS)
					}
				}
			}
			verify("both registered", "q1", "q2")

			// The session outlives either query.
			if err := srv.Unregister(drop); err != nil {
				t.Fatal(err)
			}
			keep := "q1"
			if drop == keep {
				keep = "q2"
			}
			if tot := planTotals(srv); tot.Subscribers != 1 {
				t.Fatalf("plan totals %+v after dropping %s, want the session kept", tot, drop)
			}
			verify("after dropping "+drop, keep)

			if err := srv.Unregister(keep); err != nil {
				t.Fatal(err)
			}
			if tot := planTotals(srv); tot.Subscribers != 0 || tot.Nodes != 0 || tot.Bases != 0 || tot.Rows != 0 {
				t.Fatalf("plan totals %+v after last unregister, want fully drained", tot)
			}
		})
	}
}

// TestServeRegisterWaitsForParkedShard pins registration at the round
// boundary: Register and Unregister against a parked shard return only
// once it is released. The registered query's first view then sits at its
// registration cut and equals a scratch solve, and the dropped query's
// entries are gone from the store.
func TestServeRegisterWaitsForParkedShard(t *testing.T) {
	db := testDB(t, 10, 4, 31, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 1, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, _, err := srv.Register(QueryConfig{ID: "a", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	entered, release := parkShard(srv.shards[0])
	defer release()
	stream := workload.UpdateStream(db, 12, 0.4, 32)
	const cut = 4 // one round: BatchSize entries
	if _, _, err := srv.Append(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never entered the parked round")
	}

	// b reads a prefix of a's path: a different plan, so a's drop must
	// release what b does not share.
	prefix := query.MustNew("b", pathQuery(t).Atoms[:2], nil)
	type reg struct {
		v   *View
		err error
	}
	registered := make(chan reg, 1)
	go func() {
		_, v, err := srv.Register(QueryConfig{ID: "b", Query: prefix})
		registered <- reg{v, err}
	}()
	unregistered := make(chan error, 1)
	go func() { unregistered <- srv.Unregister("a") }()
	select {
	case r := <-registered:
		t.Fatalf("Register returned (%+v) with the shard parked", r)
	case err := <-unregistered:
		t.Fatalf("Unregister returned (%v) with the shard parked", err)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	r := <-registered
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := <-unregistered; err != nil {
		t.Fatal(err)
	}
	want, err := core.LocalSensitivity(prefix, replayPrefix(t, db, stream, cut), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.v.Epoch != cut || r.v.Count != want.Count || r.v.LS.LS != want.LS {
		t.Fatalf("b's first view (%d, %d, %d), scratch (%d, %d, %d)", r.v.Epoch, r.v.Count, r.v.LS.LS, cut, want.Count, want.LS)
	}
	alone, err := incremental.Open(prefix, db, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lone := alone.Store().Stats()
	if tot := planTotals(srv); tot.Subscribers != 1 || tot.Nodes != lone.Nodes || tot.Bases != lone.Bases || tot.Rows != 2 {
		t.Fatalf("plan totals %+v after dropping a, want only b's entries (%+v)", tot, lone)
	}

	// b keeps being maintained.
	_, to, err := srv.Append(stream[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	want, err = core.LocalSensitivity(prefix, replayPrefix(t, db, stream, len(stream)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := srv.View("b"); err != nil || v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("b served %+v (%v), scratch (%d, %d)", v, err, want.Count, want.LS)
	}
}

// TestServeEqualPlansShareSession pins placement by plan key: the same join
// registered under two names and IDs lands on one shard and one session.
func TestServeEqualPlansShareSession(t *testing.T) {
	db := testDB(t, 10, 4, 21, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, id := range []string{"a", "b"} {
		q := query.MustNew(id, pathQuery(t).Atoms, nil)
		if _, _, err := srv.Register(QueryConfig{ID: id, Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := queryOf(t, srv, "a"), queryOf(t, srv, "b")
	if a.shard != b.shard || a.plan != b.plan {
		t.Fatalf("a on shard %d, b on shard %d, same session %v: want one shard and one session",
			a.shard, b.shard, a.plan == b.plan)
	}
}

// TestServeSessionPerDistinctPlan registers a fanout-shaped set on two
// shards — identical copies plus selection variants — and pins that the
// server maintains one session per distinct plan key: the subscriber gauge
// counts the keys, and every applied update steps each session exactly
// once.
func TestServeSessionPerDistinctPlan(t *testing.T) {
	db := testDB(t, 12, 4, 61, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	keys := map[string]bool{}
	for _, base := range []*query.Query{pathQuery(t), starQuery3(t)} {
		variants := []*query.Query{base}
		first := base.Atoms[0]
		for _, v := range []int64{1, 2} {
			sel := map[string][]query.Predicate{first.Relation: {{Var: first.Vars[0], Op: query.Ge, Value: v}}}
			variants = append(variants, query.MustNew(base.Name, base.Atoms, sel))
		}
		for vi, q := range variants {
			for c := 0; c < 3; c++ {
				id := fmt.Sprintf("%s-%d-%d", base.Name, vi, c)
				if _, _, err := srv.Register(QueryConfig{ID: id, Query: q}); err != nil {
					t.Fatal(err)
				}
			}
			keys[planKey(q, core.Options{})] = true
		}
	}
	if tot, g := planTotals(srv), srv.m.planSubs.Value(); tot.Subscribers != len(keys) || g != float64(len(keys)) {
		t.Fatalf("plan totals %+v, subscriber gauge %v, want %d sessions", tot, g, len(keys))
	}

	updates := func() float64 {
		v, _ := srv.Metrics().Value("tsens_session_updates_total")
		return v
	}
	before := updates()
	stream := workload.UpdateStream(db, 48, 0.4, 62)
	_, to, err := srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	applied := to - srv.Stats().Skipped
	if got, want := updates()-before, float64(int64(len(keys))*applied); got != want {
		t.Fatalf("tsens_session_updates_total grew by %v over %d applied updates, want %v (%d sessions)", got, applied, want, len(keys))
	}
}

// churnStream returns n updates: pairs that insert an R2 row with a fresh
// key and delete the oldest R2 row, and after every other pair an insert
// into R1 or R3, so that plans reading R2's tables through their row
// indexes run between R2's compactions.
func churnStream(db *relation.Database, n int, seed int64) []relation.Update {
	rng := rand.New(rand.NewSource(seed))
	live := slices.Clone(db.Relation("R2").Rows)
	stream := make([]relation.Update, 0, n+1)
	for i := 0; len(stream) < n; i++ {
		row := relation.Tuple{int64(100 + i), int64(rng.Intn(6))}
		stream = append(stream,
			relation.Update{Rel: "R2", Row: row, Insert: true},
			relation.Update{Rel: "R2", Row: live[0], Insert: false})
		live = append(live[1:], row)
		if i%2 == 1 {
			rel := []string{"R1", "R3"}[rng.Intn(2)]
			stream = append(stream, relation.Update{Rel: rel, Row: relation.Tuple{int64(rng.Intn(6)), int64(rng.Intn(6))}, Insert: true})
		}
	}
	return stream[:n]
}

// checkCompacted checks that the query's view equals a from-scratch solve
// at its epoch without a rebuild, and that its session, still in its
// shard's store, holds no more than the watermark share of tombstones.
func checkCompacted(t *testing.T, srv *Server, db *relation.Database, stream []relation.Update, id string) {
	t.Helper()
	v, err := srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	sq := queryOf(t, srv, id)
	want, err := core.LocalSensitivity(sq.q, replayPrefix(t, db, stream, int(v.Epoch)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("%s served (%d, %d) at epoch %d, scratch (%d, %d)", id, v.Count, v.LS.LS, v.Epoch, want.Count, want.LS)
	}
	sess := sq.plan.sess
	if n := sess.Rebuilds(); n != 0 {
		t.Fatalf("%s rebuilt %d times by epoch %d, want no rebuild", id, n, v.Epoch)
	}
	if sess.Store() != srv.shards[sq.shard].store.Load() {
		t.Fatalf("%s: session left its shard's store", id)
	}
	if r := sess.TombstoneRatio(); r > DefaultRebuildTombstoneRatio {
		t.Fatalf("%s: tombstone ratio %v at epoch %d, past the %v watermark", id, r, v.Epoch, DefaultRebuildTombstoneRatio)
	}
}

// TestServeCompactsLoneQuery pins compaction of a query alone in its
// shard's store: under key churn (churnStream) it keeps serving exact views,
// compacts its tables in place without a rebuild, stays in its shard's
// store counted once by the subscriber gauge, and a later identical
// registration attaches to its session.
func TestServeCompactsLoneQuery(t *testing.T) {
	db := testDB(t, 20, 6, 41, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Register(QueryConfig{ID: "p", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	stream := churnStream(db, 800, 42)
	_, to, err := srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	checkCompacted(t, srv, db, stream, "p")
	if tot, g := planTotals(srv), srv.m.planSubs.Value(); tot.Subscribers != 1 || g != 1 {
		t.Fatalf("plan totals %+v, subscriber gauge %v, want the session counted once", tot, g)
	}
	if _, _, err := srv.Register(QueryConfig{ID: "p2", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	if queryOf(t, srv, "p2").plan != queryOf(t, srv, "p").plan {
		t.Fatal("identical registration after compaction opened its own session")
	}
	if tot := planTotals(srv); tot.Subscribers != 1 || tot.Rows != 3 {
		t.Fatalf("plan totals %+v, want the one session and one copy of each relation", tot)
	}
	checkCompacted(t, srv, db, stream, "p2")
}

// TestServeBulkBatchStaysInStore pins that a served session takes one
// update at a time for every batch: on one shard with BatchSize twice
// incremental.DefaultBulkThreshold, a lone query fed one batch larger than
// that threshold, which Apply would answer with a rebuild, never rebuilds
// and never leaves its shard's store, whose clock counts every applied
// update, and every view equals a from-scratch solve.
func TestServeBulkBatchStaysInStore(t *testing.T) {
	db := testDB(t, 20, 6, 47, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 1, BatchSize: 2 * incremental.DefaultBulkThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Register(QueryConfig{ID: "p", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	bulk := incremental.DefaultBulkThreshold + 64
	stream := churnStream(db, 1280, 48)
	from := 0
	for _, n := range []int{bulk, len(stream) - bulk} {
		_, to, err := srv.Append(stream[from : from+n])
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitApplied(to); err != nil {
			t.Fatal(err)
		}
		from += n
		checkCompacted(t, srv, db, stream, "p")
		applied := to - srv.Stats().Skipped
		if clk := srv.shards[0].store.Load().Stats().Clock; clk != applied {
			t.Fatalf("shard store clock %d after %d applied updates: the session left the store", clk, applied)
		}
	}
	if n, _ := srv.Metrics().Value("tsens_session_rebuilds_total"); n != 0 {
		t.Fatalf("tsens_session_rebuilds_total = %v, want 0", n)
	}
}

// TestServeCompactsSharedStore runs two different plans — the path query
// and a selection variant sharing its R1 and R2 subtrees — in the one store
// of a one-shard server under the same key churn, with readers polling
// their views and a third plan registering halfway. The session patching a
// shared table compacts it in place under the other subscribers' compiled
// plans: every view stays exact without a rebuild, and no session holds
// more than the watermark share of tombstones.
func TestServeCompactsSharedStore(t *testing.T) {
	db := testDB(t, 20, 6, 41, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := pathQuery(t)
	sel, err := query.New("path_sel", path.Atoms, map[string][]query.Predicate{
		"R3": {{Var: "D", Op: query.Le, Value: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := query.New("prefix", path.Atoms[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, q := range map[string]*query.Query{"p": path, "s": sel} {
		if _, _, err := srv.Register(QueryConfig{ID: id, Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	if st := planTotals(srv); st.Subscribers != 2 || st.SharedNodes == 0 {
		t.Fatalf("plan totals %+v, want two sessions sharing nodes", st)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range []string{"p", "s"} {
				if _, err := srv.View(id); err != nil {
					t.Errorf("view %s: %v", id, err)
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	stream := churnStream(db, 4000, 43)
	ids := []string{"p", "s"}
	for lo := 0; lo < len(stream); lo += 500 {
		if lo == 2000 {
			if _, _, err := srv.Register(QueryConfig{ID: "r", Query: prefix}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, "r")
		}
		_, to, err := srv.Append(stream[lo : lo+500])
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitApplied(to); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			checkCompacted(t, srv, db, stream, id)
		}
	}
	if n := srv.Metrics().Counter("tsens_session_compactions_total", "").Value(); n == 0 {
		t.Fatal("no table was compacted")
	}
}

// TestSharedPlansChurnUnderLoad races Register/Unregister churn of
// overlapping queries against a live writer under the race detector:
// registrations attach to a live session or open one at a busy shard's
// round boundary, and drops detach there.
func TestSharedPlansChurnUnderLoad(t *testing.T) {
	db := testDB(t, 10, 4, 21, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, _, err := srv.Register(QueryConfig{ID: "pin", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}

	// Writer: an insert-only stream (replayable without tombstone
	// bookkeeping for the final scratch check), capped so the join state
	// stays small — each churn Register below solves from scratch, and an
	// unbounded writer would outrun them quadratically.
	stop := make(chan struct{})
	var log []relation.Update
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		rng := rand.New(rand.NewSource(22))
		names := []string{"R1", "R2", "R3"}
		for len(log) < 160 {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]relation.Update, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = relation.Update{
					Rel: names[rng.Intn(len(names))], Insert: true,
					Row: relation.Tuple{int64(rng.Intn(8)), int64(rng.Intn(8))},
				}
			}
			if _, _, err := srv.Append(batch); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			log = append(log, batch...)
		}
	}()

	// Churners: overlapping registrations of the same two plans, so every
	// path Register attaches to the pinned query's session and every
	// Unregister leaves a session another query still reads.
	tq, td := triangleQuery(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				id := fmt.Sprintf("churn-%d-%d", g, i)
				qc := QueryConfig{ID: id, Query: pathQuery(t)}
				if i%3 == 0 {
					qc.Query, qc.Options = tq, core.Options{Decomposition: td}
				}
				if _, _, err := srv.Register(qc); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				if err := srv.Unregister(id); err != nil {
					t.Errorf("unregister %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writerWg.Wait()
	if t.Failed() {
		return
	}

	if err := srv.WaitApplied(int64(len(log))); err != nil {
		t.Fatal(err)
	}

	// The pinned query survived the churn with exact answers.
	cur := replayPrefix(t, db, log, len(log))
	want, err := core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := srv.View("pin")
	if err != nil {
		t.Fatal(err)
	}
	if v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("pin served (%d, %d), scratch (%d, %d)", v.Count, v.LS.LS, want.Count, want.LS)
	}

	// Every churned session was released: only the pinned query's session
	// remains, and dropping it drains the stores to zero.
	if tot := planTotals(srv); tot.Subscribers != 1 || tot.SharedNodes != 0 {
		t.Fatalf("plan totals %+v after churn, want only the pinned subscriber", tot)
	}
	if err := srv.Unregister("pin"); err != nil {
		t.Fatal(err)
	}
	if tot := planTotals(srv); tot.Subscribers != 0 || tot.Nodes != 0 || tot.Bases != 0 || tot.Rows != 0 {
		t.Fatalf("plan totals %+v after last unregister, want fully drained", tot)
	}
}
