package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"tsens/internal/core"
	"tsens/internal/mechanism"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// starQuery3 joins three relations on the variable at column 0.
func starQuery3(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.New("star", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "X"}},
		{Relation: "R2", Vars: []string{"A", "Y"}},
		{Relation: "R3", Vars: []string{"A", "Z"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestServeShardedStarDifferential drives a private star query on a
// 4-shard server through a replayed stream and checks every published
// view — count, LS, and the per-epoch sensitivity snapshot — against the
// from-scratch solver on the exact log prefix.
func TestServeShardedStarDifferential(t *testing.T) {
	db := testDB(t, 30, 6, 51, "R1", "R2", "R3")
	stream := workload.UpdateStream(db, 60, 0.4, 52)
	srv, err := New(db, Options{Shards: 4, Parallelism: 2, BatchSize: 4, DriftFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, v0, err := srv.Register(QueryConfig{
		Query:   starQuery3(t),
		Private: "R2",
		Release: mechanism.TSensDPConfig{Epsilon: 1, Bound: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v0.Epoch != 0 {
		t.Fatalf("first view at epoch %d, want 0", v0.Epoch)
	}
	for off := 0; off < len(stream); off += 6 {
		end := off + 6
		if end > len(stream) {
			end = len(stream)
		}
		_, to, err := srv.Append(stream[off:end])
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitApplied(to); err != nil {
			t.Fatal(err)
		}
		v, err := srv.View(id)
		if err != nil {
			t.Fatal(err)
		}
		cur := replayPrefix(t, db, stream, int(v.Epoch))
		want, err := core.LocalSensitivity(starQuery3(t), cur, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v.Count != want.Count || v.LS.LS != want.LS {
			t.Fatalf("epoch %d: served (%d, %d), scratch (%d, %d)", v.Epoch, v.Count, v.LS.LS, want.Count, want.LS)
		}
		for rel, tr := range want.PerRelation {
			if got := v.LS.PerRelation[rel]; got == nil || got.Sensitivity != tr.Sensitivity {
				t.Fatalf("epoch %d: %s sensitivity %v, scratch %d", v.Epoch, rel, got, tr.Sensitivity)
			}
		}
		// DriftFraction<0 refreshes the sensitivity snapshot every epoch;
		// the sorted vector must match the from-scratch one.
		if v.SensEpoch != v.Epoch {
			t.Fatalf("sens snapshot at %d, view at %d", v.SensEpoch, v.Epoch)
		}
		fn, err := core.TupleSensitivities(starQuery3(t), cur, "R2", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows := cur.Relation("R2").Rows
		wantSens := make([]int64, len(rows))
		for i, row := range rows {
			wantSens[i] = fn(row)
		}
		sortInts(wantSens)
		if len(wantSens) != len(v.Sens) {
			t.Fatalf("epoch %d: snapshot %d entries, scratch %d", v.Epoch, len(v.Sens), len(wantSens))
		}
		for i := range wantSens {
			if v.Sens[i] != wantSens[i] {
				t.Fatalf("epoch %d: sens[%d] = %d, scratch %d", v.Epoch, i, v.Sens[i], wantSens[i])
			}
		}
	}
}

// TestServeSensVectorSharedUntilDrift pins the drift-gated sensitivity
// snapshot of a private query: while the count has not drifted,
// consecutive views share one Sens backing array instead of copying it
// every round; a round that drifts the count replaces it with a fresh δ(t)
// scan of the private relation.
func TestServeSensVectorSharedUntilDrift(t *testing.T) {
	db := relation.MustNewDatabase(
		relation.MustNew("R1", []string{"a", "b"}, []relation.Tuple{{1, 1}, {2, 1}, {3, 2}}),
		relation.MustNew("R2", []string{"b", "c"}, []relation.Tuple{{1, 5}, {2, 5}}),
	)
	q, err := query.New("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, Options{Shards: 1, Parallelism: 2, DriftFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, v0, err := srv.Register(QueryConfig{
		Query:   q,
		Private: "R2",
		Release: mechanism.TSensDPConfig{Epsilon: 1, Bound: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	var log []relation.Update
	apply := func(up relation.Update) *View {
		t.Helper()
		log = append(log, up)
		_, to, err := srv.Append([]relation.Update{up})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitApplied(to); err != nil {
			t.Fatal(err)
		}
		v, err := srv.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Epoch != to {
			t.Fatalf("view at epoch %d, want %d", v.Epoch, to)
		}
		return v
	}

	// Rows joining nothing leave the count, and so the snapshot, unchanged.
	prev := v0
	for _, row := range []relation.Tuple{{9, 9}, {8, 9}} {
		v := apply(relation.Update{Rel: "R1", Row: row, Insert: true})
		if v.Count != v0.Count || v.SensEpoch != v0.SensEpoch {
			t.Fatalf("epoch %d: count %d, sens epoch %d; want the undrifted (%d, %d)", v.Epoch, v.Count, v.SensEpoch, v0.Count, v0.SensEpoch)
		}
		if len(v.Sens) == 0 || &v.Sens[0] != &prev.Sens[0] {
			t.Fatalf("epoch %d: undrifted view does not share the previous view's sensitivity vector", v.Epoch)
		}
		prev = v
	}

	// A second R2 row on B=1 takes the count from 3 to 5: drifted.
	v := apply(relation.Update{Rel: "R2", Row: relation.Tuple{1, 6}, Insert: true})
	if v.SensEpoch != v.Epoch || v.SensCount != v.Count || v.Count != 5 {
		t.Fatalf("drifted view: epoch %d count %d, sens epoch %d count %d; want a refresh at (%d, 5)",
			v.Epoch, v.Count, v.SensEpoch, v.SensCount, v.Epoch)
	}
	if &v.Sens[0] == &prev.Sens[0] {
		t.Fatal("drifted view still shares the stale sensitivity vector")
	}
	cur := replayPrefix(t, db, log, len(log))
	fn, err := core.TupleSensitivities(q, cur, "R2", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, row := range cur.Relation("R2").Rows {
		want = append(want, fn(row))
	}
	sortInts(want)
	if len(v.Sens) != len(want) {
		t.Fatalf("sensitivity vector %v, scan %v", v.Sens, want)
	}
	for i := range want {
		if v.Sens[i] != want[i] {
			t.Fatalf("sensitivity vector %v, scan %v", v.Sens, want)
		}
	}
}

// TestServeShardWatermarkJoin is the hostile-scheduler test for the
// consistent-cut rule: with the shard owning a query paused mid-batch, the
// other shard folds the round and its watermark advances, but nothing
// readable — Epoch, Stats.Epoch, the paused shard's query view — may
// reflect the half-applied round.
func TestServeShardWatermarkJoin(t *testing.T) {
	db := testDB(t, 20, 8, 61, "R1", "R2", "R3")
	srv, err := New(db, Options{Shards: 2, Parallelism: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, v0, err := srv.Register(QueryConfig{Query: starQuery3(t)})
	if err != nil {
		t.Fatal(err)
	}
	slowShard := ownerShard(srv, id)
	fastShard := 1 - slowShard

	// Pause the query's shard at the start of its next round. The release
	// is deferred before srv.Close in LIFO order: a failed assertion while
	// the shard is parked must not leave Close blocked on the unfinished
	// round.
	entered, releaseGate := parkShard(srv.shards[slowShard])
	defer releaseGate()

	ups := []relation.Update{
		{Rel: "R1", Row: relation.Tuple{0, 1}, Insert: true},
		{Rel: "R2", Row: relation.Tuple{0, 2}, Insert: true},
	}
	_, to, err := srv.Append(ups)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the round started and the query's shard is parked

	// The other shard finishes the round: its watermark reaches the cut.
	waitWatermark(t, srv, fastShard, to)
	st := srv.Stats()
	if st.Watermarks[slowShard] != 0 {
		t.Fatalf("paused shard watermark %d, want 0", st.Watermarks[slowShard])
	}
	// Nothing readable reflects the torn round: the published epoch is
	// still the joined cut (0), and the view serves the pre-round state.
	if got := srv.Epoch(); got != 0 {
		t.Fatalf("epoch advanced to %d with a shard mid-batch", got)
	}
	if st.Epoch != 0 {
		t.Fatalf("stats epoch %d, want 0", st.Epoch)
	}
	v, err := srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 0 || v.Count != v0.Count {
		t.Fatalf("view (%d, %d) observed mid-round, want the epoch-0 view (%d, %d)", v.Epoch, v.Count, 0, v0.Count)
	}
	// Release the shard: the round completes and the joined cut catches up.
	releaseGate()
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	v, err = srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	cur := replayPrefix(t, db, ups, len(ups))
	want, err := core.LocalSensitivity(starQuery3(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != to || v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("final view (%d, %d, %d), scratch (%d, %d, %d)", v.Epoch, v.Count, v.LS.LS, to, want.Count, want.LS)
	}
}

// TestServeRegisterWhileDraining registers queries while a feeder hammers
// the update log: registration snapshots, solves off-lock, and catches up,
// so every returned initial view must still be exact for the consistent
// cut it names. Run with -race.
func TestServeRegisterWhileDraining(t *testing.T) {
	db := testDB(t, 30, 5, 71, "R1", "R2", "R3")
	stream := workload.UpdateStream(db, 240, 0.3, 72)
	srv, err := New(db, Options{Shards: 4, Parallelism: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	var feedErr error
	go func() {
		defer close(done)
		for off := 0; off < len(stream); off += 5 {
			end := off + 5
			if end > len(stream) {
				end = len(stream)
			}
			if _, _, feedErr = srv.Append(stream[off:end]); feedErr != nil {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	type reg struct {
		id   string
		star bool
		v    *View
	}
	var regs []reg
	for i := 0; i < 6; i++ {
		cfg := QueryConfig{Query: starQuery3(t)}
		star := i%2 == 0
		if !star {
			cfg = QueryConfig{Query: pathQuery(t)}
		}
		id, v, err := srv.Register(cfg)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg{id, star, v})
	}
	<-done
	if feedErr != nil {
		t.Fatal(feedErr)
	}
	if err := srv.WaitApplied(int64(len(stream))); err != nil {
		t.Fatal(err)
	}

	check := func(star bool, v *View) {
		t.Helper()
		cur := replayPrefix(t, db, stream, int(v.Epoch))
		q := pathQuery(t)
		if star {
			q = starQuery3(t)
		}
		want, err := core.LocalSensitivity(q, cur, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v.Count != want.Count || v.LS.LS != want.LS {
			t.Fatalf("epoch %d (star=%v): served (%d, %d), scratch (%d, %d)",
				v.Epoch, star, v.Count, v.LS.LS, want.Count, want.LS)
		}
	}
	for _, r := range regs {
		check(r.star, r.v) // the initial view, at its registration cut
		v, err := srv.View(r.id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Epoch != int64(len(stream)) {
			t.Fatalf("final view at epoch %d, want %d", v.Epoch, len(stream))
		}
		check(r.star, v) // the final view, all updates folded
	}
}

// TestServeConcurrentReleaseNoDoubleSpend: concurrent Release calls on one
// query must never jointly overdraw the ledger — with a budget of exactly
// one fresh release and no drift, one caller spends ε and every other
// caller replays for free.
func TestServeConcurrentReleaseNoDoubleSpend(t *testing.T) {
	db := testDB(t, 30, 3, 81, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, _, err := srv.Register(QueryConfig{
		Query:   pathQuery(t),
		Private: "R2",
		Release: mechanism.TSensDPConfig{Epsilon: 1, Bound: 50},
		Budget:  1,
		Drift:   1e9, // counts never drift: replays stay free forever
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fresh int
		spent float64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5; i++ {
				res, err := srv.Release(id, rng)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				mu.Lock()
				if res.Fresh {
					fresh++
				}
				spent += res.Spent
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if fresh != 1 || spent != 1 {
		t.Fatalf("%d fresh releases spending %g, want exactly 1 spending 1", fresh, spent)
	}
	infos := srv.Queries()
	if len(infos) != 1 || infos[0].Spent != 1 || infos[0].Releases != 1 {
		t.Fatalf("ledger drifted from the model: %+v", infos)
	}
}
