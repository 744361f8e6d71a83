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

	// The star query's shard stalls; the healthy query is the first other
	// candidate whose plan hashes to the other shard.
	tri, dec := triangleQuery(t)
	star := QueryConfig{ID: "star", Query: starQuery3(t)}
	slow := srv.keyShard(planKey(star.Query, star.Options))
	var healthy QueryConfig
	for _, c := range []QueryConfig{
		{ID: "tri", Query: tri, Options: core.Options{Decomposition: dec}},
		{ID: "path", Query: pathQuery(t)},
		{ID: "path2", Query: query.MustNew("path2", pathQuery(t).Atoms[:2], nil)},
	} {
		if srv.keyShard(planKey(c.Query, c.Options)) != slow {
			healthy = c
			break
		}
	}
	if healthy.Query == nil {
		t.Fatal("every candidate plan hashes to the star query's shard")
	}
	starID, vStar0, err := srv.Register(star)
	if err != nil {
		t.Fatal(err)
	}
	healthyID, _, err := srv.Register(healthy)
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerShard(srv, healthyID)

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
	want, err := core.LocalSensitivity(healthy.Query, cur, healthy.Options)
	if err != nil {
		t.Fatal(err)
	}
	v, err := srv.View(healthyID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != to || v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("stalled-shard %s view (%d, %d, %d), want (%d, %d, %d)",
			healthyID, v.Epoch, v.Count, v.LS.LS, to, want.Count, want.LS)
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
