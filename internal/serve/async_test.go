package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tsens/internal/core"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// parkShard installs a gate that blocks the shard's writer at the start of
// its next round. It returns a channel that receives once the shard is
// parked and a release function (idempotent; also deferred-safe).
func parkShard(sh *shard) (entered chan struct{}, release func()) {
	gateCh := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gateCh) }) }
	entered = make(chan struct{}, 1)
	gate := func(int) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gateCh
	}
	sh.gate.Store(&gate)
	return entered, release
}

// ownerShard returns the shard owning a registered query's session.
// Queries are assigned by query text rather than ID, so tests read the
// installed query instead of re-deriving the hash.
func ownerShard(s *Server, id string) int {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	return s.queries[id].shard
}

// waitWatermark blocks until shard i's watermark reaches lsn, waking on
// the notification every shard sends after storing its watermark.
func waitWatermark(tb testing.TB, s *Server, i int, lsn int64) {
	tb.Helper()
	deadline := time.After(10 * time.Second)
	for {
		s.waitMu.Lock()
		ch := s.epochCh
		s.waitMu.Unlock()
		if s.shards[i].watermark.Load() >= lsn {
			return
		}
		select {
		case <-ch:
		case <-deadline:
			tb.Fatalf("shard %d watermark %d never reached %d", i, s.shards[i].watermark.Load(), lsn)
		}
	}
}

// TestServeAsyncStalledShardIndependence is the async-epochs acceptance
// test: with one shard frozen mid-drain, the query owned by the healthy
// shard keeps advancing to new epochs, while the stalled shard's query and
// the published joined epoch hold at the old consistent cut — no torn
// read, no sympathy stall.
func TestServeAsyncStalledShardIndependence(t *testing.T) {
	db := testDB(t, 20, 8, 71, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	starID, vStar0, err := srv.Register(QueryConfig{ID: "star", Query: starQuery3(t)})
	if err != nil {
		t.Fatal(err)
	}
	tri, dec := triangleQuery(t)
	triID, _, err := srv.Register(QueryConfig{ID: "tri", Query: tri, Options: core.Options{Decomposition: dec}})
	if err != nil {
		t.Fatal(err)
	}
	owner, slow := ownerShard(srv, triID), ownerShard(srv, starID)
	if owner == slow {
		t.Fatalf("triangle and star queries both on shard %d; the test needs them apart", owner)
	}

	entered, release := parkShard(srv.shards[slow])
	defer release()

	stream := workload.UpdateStream(db, 24, 0.4, 72)
	_, to, err := srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the slow shard is parked on its first queued round

	// The healthy shard drains every queued round on its own: its query's
	// view advances all the way to the appended LSN.
	waitWatermark(t, srv, owner, to)
	cur := replayPrefix(t, db, stream, len(stream))
	wantTri, err := core.LocalSensitivity(tri, cur, core.Options{Decomposition: dec})
	if err != nil {
		t.Fatal(err)
	}
	vTri, err := srv.View(triID)
	if err != nil {
		t.Fatal(err)
	}
	if vTri.Epoch != to || vTri.Count != wantTri.Count || vTri.LS.LS != wantTri.LS {
		t.Fatalf("stalled-shard triangle view (%d, %d, %d), want (%d, %d, %d)",
			vTri.Epoch, vTri.Count, vTri.LS.LS, to, wantTri.Count, wantTri.LS)
	}

	// Nothing relevant to the stalled shard moves: the joined epoch stays
	// at the pre-round cut and the stalled shard's query serves its old
	// view.
	if got := srv.Epoch(); got != 0 {
		t.Fatalf("joined epoch %d with a shard parked, want 0", got)
	}
	vStar, err := srv.View(starID)
	if err != nil {
		t.Fatal(err)
	}
	if vStar.Epoch != 0 || vStar.Count != vStar0.Count {
		t.Fatalf("star view (%d, %d) while its shard is parked, want (0, %d)", vStar.Epoch, vStar.Count, vStar0.Count)
	}

	// The per-shard epoch gauge reports the asymmetry: the healthy shard's
	// watermark is at the appended LSN, the parked one's at the seed.
	reg := srv.Metrics()
	if got, ok := reg.Value(fmt.Sprintf("tsens_shard_epoch{shard=%q}", shardLabel(owner))); !ok || got != float64(to) {
		t.Fatalf("tsens_shard_epoch{shard=%d} = %v (ok=%v), want %d", owner, got, ok, to)
	}
	if got, ok := reg.Value(fmt.Sprintf("tsens_shard_epoch{shard=%q}", shardLabel(slow))); !ok || got != 0 {
		t.Fatalf("tsens_shard_epoch{shard=%d} = %v (ok=%v), want 0", slow, got, ok)
	}

	// Release the shard: everything converges on the full cut.
	release()
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	wantStar, err := core.LocalSensitivity(starQuery3(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vStar, err = srv.View(starID)
	if err != nil {
		t.Fatal(err)
	}
	if vStar.Epoch != to || vStar.Count != wantStar.Count || vStar.LS.LS != wantStar.LS {
		t.Fatalf("released star view (%d, %d, %d), want (%d, %d, %d)",
			vStar.Epoch, vStar.Count, vStar.LS.LS, to, wantStar.Count, wantStar.LS)
	}
}

// TestServeFenceWakesWaiters is the regression test for fencing vs parked
// waiters: a WaitApplied caller blocked on an epoch that will not arrive
// must return the fence error the moment the server is fenced, not hang to
// its own deadline. A wait whose target was already reached keeps
// succeeding on a fenced server.
func TestServeFenceWakesWaiters(t *testing.T) {
	db := testDB(t, 10, 4, 81, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 1, Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	entered, release := parkShard(srv.shards[0])
	defer release()
	_, to, err := srv.Append([]relation.Update{{Rel: "R1", Row: relation.Tuple{1, 1}, Insert: true}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the round is parked: the epoch cannot reach `to`

	applied := make(chan error, 1)
	go func() { applied <- srv.WaitApplied(to) }()
	// Let the waiter park on the epoch channel before fencing.
	time.Sleep(10 * time.Millisecond)

	cause := errors.New("lease lost")
	srv.Fence(cause)

	select {
	case err := <-applied:
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("WaitApplied returned %v after Fence, want ErrFenced", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied still parked 5s after Fence")
	}

	// Satisfiable waits still succeed on a fenced server.
	if err := srv.WaitApplied(0); err != nil {
		t.Fatalf("WaitApplied(0) on fenced server: %v", err)
	}
	release()
	// The parked round still drains after release — fencing refuses new
	// state changes, it does not abandon acknowledged ones.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Epoch() < to {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d never reached %d after release", srv.Epoch(), to)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeRegisterChaseUnderLoad drives Register's bounded off-lock
// catch-up chase under a hostile schedule: the test hook grows the backlog
// past the chase tail before every iteration, pinning that (a) the
// registration cut advances chunk-by-chunk through regCuts, (b) log
// compaction reclaims the replayed prefix mid-registration, and (c) once
// the feed stops the loop exits with only a bounded tail left for the
// under-lock install.
func TestServeRegisterChaseUnderLoad(t *testing.T) {
	db := testDB(t, 15, 6, 91, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 4}) // tail = 16
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const chunk = 20 // > tail: every hook round forces one more chase
	stream := workload.UpdateStream(db, 8+3*chunk, 0.4, 92)
	next := 0
	feed := func(n int) int64 {
		t.Helper()
		_, to, err := srv.Append(stream[next : next+n])
		if err != nil {
			t.Fatal(err)
		}
		next += n
		if err := srv.WaitApplied(to); err != nil {
			t.Fatal(err)
		}
		return to
	}
	cut0 := feed(8) // the registration cut the chase starts from

	var chases int
	var lastTo int64 = cut0
	srv.testRegChase = func(chase int, cut, frontier int64) {
		chases++
		if int64(chase) != 0 && cut != lastTo {
			t.Errorf("chase %d: cut %d, want the previous chunk end %d", chase, cut, lastTo)
		}
		if chase >= 1 {
			// The previous iteration advanced the registration cut: the
			// single outstanding regCuts entry must sit exactly at it.
			srv.logMu.Lock()
			if len(srv.regCuts) != 1 {
				t.Errorf("chase %d: %d outstanding regCuts, want 1", chase, len(srv.regCuts))
			}
			for _, c := range srv.regCuts {
				if c != cut {
					t.Errorf("chase %d: regCuts at %d, want %d", chase, c, cut)
				}
			}
			srv.logMu.Unlock()
		}
		if chase >= 2 {
			// With the cut advanced past the replayed prefix, compaction has
			// reclaimed it: the log no longer reaches back to the original cut.
			srv.logMu.Lock()
			base := srv.logBase
			srv.logMu.Unlock()
			if base <= cut0 {
				t.Errorf("chase %d: logBase %d, want > %d (replayed prefix reclaimed)", chase, base, cut0)
			}
		}
		if chase < 3 {
			lastTo = feed(chunk) // outrun the tail: force another chase
		}
	}

	id, v, err := srv.Register(QueryConfig{ID: "chase", Query: pathQuery(t)})
	if err != nil {
		t.Fatal(err)
	}
	if chases != 4 {
		t.Fatalf("chase loop ran %d iterations, want 4 (3 forced + the clean exit)", chases)
	}
	total := int64(next)
	if v.Epoch != total {
		t.Fatalf("registered at epoch %d, want %d", v.Epoch, total)
	}
	cur := replayPrefix(t, db, stream, next)
	want, err := core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("chased registration view (%d, %d), want (%d, %d)", v.Count, v.LS.LS, want.Count, want.LS)
	}
	// The installed query keeps being maintained normally.
	srv.testRegChase = nil
	to := feed(len(stream) - next)
	cur = replayPrefix(t, db, stream, len(stream))
	want, err = core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Epoch != to || v2.Count != want.Count || v2.LS.LS != want.LS {
		t.Fatalf("post-chase view (%d, %d, %d), want (%d, %d, %d)",
			v2.Epoch, v2.Count, v2.LS.LS, to, want.Count, want.LS)
	}
}

// BenchmarkServeStalledShardRead measures the read path of a query whose
// owning shard is healthy while another shard is frozen mid-drain — the
// wait-free property per-shard drains buy: the read loads the view the
// healthy shard published and never blocks on the stalled one.
func BenchmarkServeStalledShardRead(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	var rels []*relation.Relation
	for _, name := range []string{"R1", "R2", "R3"} {
		rows := make([]relation.Tuple, 50)
		for i := range rows {
			rows[i] = relation.Tuple{int64(rng.Intn(10)), int64(rng.Intn(10))}
		}
		r, err := relation.New(name, []string{name + "_x", name + "_y"}, rows)
		if err != nil {
			b.Fatal(err)
		}
		rels = append(rels, r)
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	q, err := query.New("path", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	id, _, err := srv.Register(QueryConfig{ID: "path", Query: q})
	if err != nil {
		b.Fatal(err)
	}
	owner := ownerShard(srv, id)
	slow := 1 - owner

	entered, release := parkShard(srv.shards[slow])
	defer release()
	stream := workload.UpdateStream(db, 24, 0.4, 102)
	_, to, err := srv.Append(stream)
	if err != nil {
		b.Fatal(err)
	}
	<-entered
	waitWatermark(b, srv, owner, to)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := srv.View(id)
		if err != nil {
			b.Fatal(err)
		}
		if v.Epoch != to {
			b.Fatalf("view epoch %d, want %d", v.Epoch, to)
		}
	}
}
