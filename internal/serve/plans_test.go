package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tsens/internal/core"
	"tsens/internal/incremental"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// adoptStatsOf returns the adoption outcome of a registered query's
// session.
func adoptStatsOf(t *testing.T, s *Server, id string) incremental.AdoptStats {
	t.Helper()
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	sq := s.queries[id]
	if sq == nil {
		t.Fatalf("query %q not registered", id)
	}
	return sq.sess.AdoptStats()
}

// planTotals sums the plan-store stats across every shard of the server.
func planTotals(s *Server) incremental.PlanStoreStats {
	var tot incremental.PlanStoreStats
	for _, d := range s.PlanStats() {
		tot.Bases += d.Bases
		tot.Nodes += d.Nodes
		tot.Residues += d.Residues
		tot.Rows += d.Rows
		tot.SharedNodes += d.SharedNodes
		tot.SharedRows += d.SharedRows
		tot.NodeRefs += d.NodeRefs
		tot.Subscribers += d.Subscribers
	}
	return tot
}

// TestSharedPlansIdenticalQueriesFullShare pins the headline sharing
// property: a byte-identical second registration adopts 100% of its
// botjoin nodes (and the whole residue) from the first, and unregistering
// either query leaves the survivor's answers exact.
func TestSharedPlansIdenticalQueriesFullShare(t *testing.T) {
	db := testDB(t, 12, 4, 11, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 1, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, _, err := srv.Register(QueryConfig{ID: "q1", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Register(QueryConfig{ID: "q2", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}

	// q1 donated its tables; q2 must have shared every one of them.
	if st := adoptStatsOf(t, srv, "q1"); st.NodesShared != 0 || !st.ResidueDonated {
		t.Fatalf("donor adopt stats %+v, want all-donated", st)
	}
	st := adoptStatsOf(t, srv, "q2")
	if !st.FullShare() || !st.ResidueShared {
		t.Fatalf("adopter stats %+v, want FullShare with shared residue", st)
	}
	tot := planTotals(srv)
	if tot.Subscribers != 2 || tot.SharedNodes != tot.Nodes || tot.Nodes == 0 {
		t.Fatalf("plan totals %+v, want 2 subscribers sharing every node", tot)
	}
	if tot.NodeRefs != 2*tot.Nodes {
		t.Fatalf("plan totals %+v, want fan-out of exactly 2 on every node", tot)
	}

	// Both answers stay exact while sharing one copy of the join state.
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
			if v.Count != want.Count || v.LS.LS != want.LS {
				t.Fatalf("%s: %s served (%d, %d), scratch (%d, %d)",
					when, id, v.Count, v.LS.LS, want.Count, want.LS)
			}
		}
	}
	verify("both registered", "q1", "q2")

	// Dropping the donor must leave the adopter intact: the store keeps
	// the canonical tables alive until the last subscriber releases them.
	if err := srv.Unregister("q1"); err != nil {
		t.Fatal(err)
	}
	verify("after dropping donor", "q2")

	if err := srv.Unregister("q2"); err != nil {
		t.Fatal(err)
	}
	if tot := planTotals(srv); tot.Subscribers != 0 || tot.Nodes != 0 || tot.Bases != 0 || tot.Residues != 0 {
		t.Fatalf("plan totals %+v after last unregister, want fully drained", tot)
	}
}

// TestSharedPlansDeferredAdopt pins the busy-shard install path: a
// registration landing while the owning shard is mid-round must not patch
// shared tables under a live writer — the adoption defers to the end of
// the shard's round that reaches the install cut, with no later write
// needed, and from then on the session is a full sharer.
func TestSharedPlansDeferredAdopt(t *testing.T) {
	db := testDB(t, 10, 4, 31, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 1, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, _, err := srv.Register(QueryConfig{ID: "a", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	sh := srv.shards[ownerShard(srv, "a")]
	entered, release := parkShard(sh)
	defer release()

	stream := workload.UpdateStream(db, 12, 0.4, 32)
	if _, _, err := srv.Append(stream[:6]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never entered the parked round")
	}

	// Mid-round registration: the session catches up from the log, but
	// the store attach is deferred, so the store still has one subscriber.
	_, bv, err := srv.Register(QueryConfig{ID: "b", Query: pathQuery(t)})
	if err != nil {
		t.Fatal(err)
	}
	// b's first view is taken at the fold frontier, past the first parked
	// round, while the joined cut is still 0 — ahead of the published
	// epoch, yet exactly the state after its own prefix of the log.
	if bv.Epoch < 4 || srv.Epoch() != 0 {
		t.Fatalf("b registered at epoch %d with server epoch %d, want ≥ 4 ahead of 0", bv.Epoch, srv.Epoch())
	}
	bwant, err := core.LocalSensitivity(pathQuery(t), replayPrefix(t, db, stream, int(bv.Epoch)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bv.Count != bwant.Count || bv.LS.LS != bwant.LS {
		t.Fatalf("b's first view at %d: (%d, %d), scratch (%d, %d)", bv.Epoch, bv.Count, bv.LS.LS, bwant.Count, bwant.LS)
	}
	if st := adoptStatsOf(t, srv, "b"); st.NodesShared != 0 || st.NodesDonated != 0 {
		t.Fatalf("adopt stats %+v while the shard is parked, want no adoption yet", st)
	}
	if tot := planTotals(srv); tot.Subscribers != 1 {
		t.Fatalf("plan totals %+v while the shard is parked, want the donor alone", tot)
	}

	// The round that reaches b's install cut performs the adoption as it
	// ends, on an otherwise quiet server.
	release()
	if err := srv.WaitApplied(bv.Epoch); err != nil {
		t.Fatal(err)
	}
	if st := adoptStatsOf(t, srv, "b"); !st.FullShare() || !st.ResidueShared {
		t.Fatalf("deferred adopt stats %+v, want FullShare with shared residue", st)
	}
	if tot := planTotals(srv); tot.Subscribers != 2 {
		t.Fatalf("plan totals %+v after the deferred adopt, want both subscribers", tot)
	}
	_, to, err := srv.Append(stream[6:])
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}

	cur := replayPrefix(t, db, stream, len(stream))
	want, err := core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		v, err := srv.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Count != want.Count || v.LS.LS != want.LS {
			t.Fatalf("%s served (%d, %d), scratch (%d, %d)", id, v.Count, v.LS.LS, want.Count, want.LS)
		}
	}
}

// TestServeCompactsLoneQuery pins the sole-subscriber compaction rule at
// the server and the rejoin that follows it: with default options, a query
// alone in its shard's store rebuilds under key churn — each update pair
// inserts an R2 row with a fresh key and deletes the oldest one — keeps
// serving exact views, and is back in its shard's fallback store once the
// round ends, counted once by the subscriber gauge, so a later identical
// registration shares its tables and rows.
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
	rng := rand.New(rand.NewSource(42))
	live := append([]relation.Tuple(nil), db.Relation("R2").Rows...)
	var stream []relation.Update
	for i := 0; i < 400; i++ {
		row := relation.Tuple{int64(100 + i), int64(rng.Intn(6))}
		stream = append(stream,
			relation.Update{Rel: "R2", Row: row, Insert: true},
			relation.Update{Rel: "R2", Row: live[0], Insert: false})
		live = append(live[1:], row)
	}
	_, to, err := srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	v, err := srv.View("p")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LocalSensitivity(pathQuery(t), replayPrefix(t, db, stream, int(v.Epoch)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Rebuilds == 0 {
		t.Fatalf("view at epoch %d reports no rebuilds: a lone query never compacted", v.Epoch)
	}
	if v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("served (%d, %d) at epoch %d, scratch (%d, %d)", v.Count, v.LS.LS, v.Epoch, want.Count, want.LS)
	}

	queryOf := func(id string) *servedQuery {
		srv.qmu.RLock()
		defer srv.qmu.RUnlock()
		return srv.queries[id]
	}
	p := queryOf("p")
	if p.sess.Store() != srv.shards[p.shard].store {
		t.Fatal("compacted session left outside its shard's store")
	}
	if tot, g := planTotals(srv), srv.m.planSubs.Value(); tot.Subscribers != 1 || g != 1 {
		t.Fatalf("plan totals %+v, subscriber gauge %v, want the rebuilt session counted once", tot, g)
	}
	if _, _, err := srv.Register(QueryConfig{ID: "p2", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	if st := adoptStatsOf(t, srv, "p2"); !st.FullShare() || !st.ResidueShared {
		t.Fatalf("identical registration after a rebuild: %+v, want FullShare with shared residue", st)
	}
	tot := planTotals(srv)
	if tot.Subscribers != 2 || tot.SharedNodes != tot.Nodes || tot.Rows != 3 || tot.SharedRows != 3 {
		t.Fatalf("plan totals %+v, want 2 subscribers sharing every node and relation", tot)
	}
	if &queryOf("p2").sess.Rows("R2")[0] != &p.sess.Rows("R2")[0] {
		t.Fatal("identical registration reads its own copy of R2")
	}
	if v2, err := srv.View("p2"); err != nil || v2.Epoch != v.Epoch || v2.Count != want.Count || v2.LS.LS != want.LS {
		t.Fatalf("p2 served %+v (%v), scratch (%d, %d) at epoch %d", v2, err, want.Count, want.LS, v.Epoch)
	}
}

// TestSharedPlansChurnUnderLoad races Register/Unregister churn of
// overlapping queries against a live writer, exercising
// deferred adoption (busy shard at install time) and deferred release
// (unregister mid-round) under the race detector.
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

	// Churners: overlapping registrations of the same two query texts, so
	// every Register lands on a store with live subscribers and every
	// Unregister drops a refcount another query still holds.
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

	// No later write is needed to flush releases a busy shard deferred
	// when the churners unregistered mid-round: each shard releases them
	// at the end of the round that kept it busy.
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

	// Every churned refcount was released: only the pinned query's
	// subscriptions remain, and dropping it drains the stores to zero.
	if tot := planTotals(srv); tot.Subscribers == 0 || tot.SharedNodes != 0 {
		t.Fatalf("plan totals %+v after churn, want only the pinned subscriber", tot)
	}
	if err := srv.Unregister("pin"); err != nil {
		t.Fatal(err)
	}
	if tot := planTotals(srv); tot.Subscribers != 0 || tot.Nodes != 0 || tot.Bases != 0 || tot.Residues != 0 {
		t.Fatalf("plan totals %+v after last unregister, want fully drained", tot)
	}
}
