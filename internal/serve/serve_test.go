package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tsens/internal/core"
	"tsens/internal/ghd"
	"tsens/internal/mechanism"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// testDB builds a small multi-relation database with heavy join collisions.
func testDB(t *testing.T, size, dom int, seed int64, names ...string) *relation.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var rels []*relation.Relation
	for _, name := range names {
		rows := make([]relation.Tuple, size)
		for i := range rows {
			rows[i] = relation.Tuple{int64(rng.Intn(dom)), int64(rng.Intn(dom))}
		}
		r, err := relation.New(name, []string{name + "_x", name + "_y"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func pathQuery(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.New("path", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func triangleQuery(t *testing.T) (*query.Query, *ghd.Decomposition) {
	t.Helper()
	q, err := query.New("tri", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q, ghd.MustFromBags(q, [][]int{{0, 1}, {2}})
}

// replayPrefix applies the first n updates of stream to a clone of base.
func replayPrefix(t *testing.T, base *relation.Database, stream []relation.Update, n int) *relation.Database {
	t.Helper()
	db := base.Clone()
	for _, up := range stream[:n] {
		r := db.Relation(up.Rel)
		if up.Insert {
			r.Rows = append(r.Rows, up.Row.Clone())
			continue
		}
		found := false
		for i, row := range r.Rows {
			if row.Equal(up.Row) {
				r.Rows[i] = r.Rows[len(r.Rows)-1]
				r.Rows = r.Rows[:len(r.Rows)-1]
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("replay: delete of absent tuple %v from %s", up.Row, up.Rel)
		}
	}
	return db
}

func TestServeRegisterAppendView(t *testing.T) {
	db := testDB(t, 10, 4, 1, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	id, v, err := srv.Register(QueryConfig{Query: pathQuery(t)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LocalSensitivity(pathQuery(t), db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 0 || v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("initial view (%d, %d, %d), want (0, %d, %d)", v.Epoch, v.Count, v.LS.LS, want.Count, want.LS)
	}

	stream := workload.UpdateStream(db, 10, 0.4, 7)
	_, to, err := srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	cur := replayPrefix(t, db, stream, len(stream))
	want, err = core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Epoch != to || v2.Count != want.Count || v2.LS.LS != want.LS {
		t.Fatalf("view after replay (%d, %d, %d), want (%d, %d, %d)",
			v2.Epoch, v2.Count, v2.LS.LS, to, want.Count, want.LS)
	}

	// Mid-stream registration starts at the current epoch.
	tq, td := triangleQuery(t)
	_, v3, err := srv.Register(QueryConfig{ID: "tri", Query: tq, Options: core.Options{Decomposition: td}})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Epoch != to {
		t.Fatalf("mid-stream registration epoch %d, want %d", v3.Epoch, to)
	}
	wantTri, err := core.LocalSensitivity(tq, cur, core.Options{Decomposition: td})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Count != wantTri.Count || v3.LS.LS != wantTri.LS {
		t.Fatalf("triangle view (%d, %d), want (%d, %d)", v3.Count, v3.LS.LS, wantTri.Count, wantTri.LS)
	}

	if got := len(srv.Queries()); got != 2 {
		t.Fatalf("Queries() lists %d, want 2", got)
	}
	if err := srv.Unregister("tri"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Unregister("tri"); err == nil {
		t.Fatal("double unregister accepted")
	}
	if _, err := srv.View("tri"); err == nil {
		t.Fatal("view of unregistered query accepted")
	}
	_ = id
}

func TestServeAppendValidation(t *testing.T) {
	db := testDB(t, 4, 3, 2, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Append([]relation.Update{{Rel: "NOPE", Row: relation.Tuple{1, 2}, Insert: true}}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, _, err := srv.Append([]relation.Update{{Rel: "R1", Row: relation.Tuple{1}, Insert: true}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// Deletes of absent tuples are skipped at apply time, not failed.
	_, to, err := srv.Append([]relation.Update{{Rel: "R1", Row: relation.Tuple{99, 99}, Insert: false}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Skipped != 1 || st.Epoch != to {
		t.Fatalf("stats %+v, want 1 skipped at epoch %d", st, to)
	}
	// The server refuses appends after Close.
	srv.Close()
	if _, _, err := srv.Append([]relation.Update{{Rel: "R1", Row: relation.Tuple{1, 2}, Insert: true}}); err == nil {
		t.Fatal("append after close accepted")
	}
}

// TestServeConcurrentReaders is the serving-layer acceptance test: N reader
// goroutines issue LS/Count against two multiplexed queries while the
// writer drains a live update stream. Every answer must equal the
// from-scratch LocalSensitivity at the exact epoch the view was published
// for (linearizability at epoch granularity). Run with -race.
func TestServeConcurrentReaders(t *testing.T) {
	const (
		readers = 8
		nUpds   = 120
	)
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	stream := workload.UpdateStream(db, nUpds, 0.4, 11)

	srv, err := New(db, Options{Parallelism: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tq, td := triangleQuery(t)
	pathID, _, err := srv.Register(QueryConfig{ID: "path", Query: pathQuery(t)})
	if err != nil {
		t.Fatal(err)
	}
	triID, _, err := srv.Register(QueryConfig{ID: "tri", Query: tq, Options: core.Options{Decomposition: td}})
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		id    string
		epoch int64
		count int64
		ls    int64
	}
	var (
		mu      sync.Mutex
		answers []answer
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := []string{pathID, triID}
			for i := 0; !done.Load(); i++ {
				id := ids[(g+i)%2]
				v, err := srv.View(id)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				cnt, ce, err := srv.Count(id)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				mu.Lock()
				answers = append(answers,
					answer{id, v.Epoch, v.Count, v.LS.LS},
					answer{id, ce, cnt, -1})
				mu.Unlock()
			}
		}(g)
	}

	// Feed the stream in uneven chunks while the readers hammer the views.
	var to int64
	for off := 0; off < len(stream); {
		end := off + 1 + (off*7)%13
		if end > len(stream) {
			end = len(stream)
		}
		if _, to, err = srv.Append(stream[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every (query, epoch) pair observed must match the from-scratch solver
	// on the snapshot + log prefix of that epoch.
	type key struct {
		id    string
		epoch int64
	}
	expected := map[key]*core.Result{}
	lookup := func(k key) *core.Result {
		if r, ok := expected[k]; ok {
			return r
		}
		cur := replayPrefix(t, db, stream, int(k.epoch))
		var (
			res *core.Result
			err error
		)
		if k.id == triID {
			res, err = core.LocalSensitivity(tq, cur, core.Options{Decomposition: td})
		} else {
			res, err = core.LocalSensitivity(pathQuery(t), cur, core.Options{})
		}
		if err != nil {
			t.Fatalf("scratch at epoch %d: %v", k.epoch, err)
		}
		expected[k] = res
		return res
	}
	epochs := map[key]bool{}
	for _, a := range answers {
		want := lookup(key{a.id, a.epoch})
		if a.count != want.Count {
			t.Fatalf("%s at epoch %d: served count %d, scratch %d", a.id, a.epoch, a.count, want.Count)
		}
		if a.ls >= 0 && a.ls != want.LS {
			t.Fatalf("%s at epoch %d: served LS %d, scratch %d", a.id, a.epoch, a.ls, want.LS)
		}
		epochs[key{a.id, a.epoch}] = true
	}
	if len(answers) < readers {
		t.Fatalf("only %d answers collected", len(answers))
	}
	t.Logf("verified %d answers across %d (query, epoch) pairs, final epoch %d",
		len(answers), len(epochs), srv.Epoch())
}

// TestServeRelease exercises the DP release path: fresh release, free
// replay, drift-triggered fresh release, and budget exhaustion.
func TestServeRelease(t *testing.T) {
	db := testDB(t, 30, 3, 5, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 2, DriftFraction: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := mechanism.TSensDPConfig{Epsilon: 1, Bound: 50}
	id, v0, err := srv.Register(QueryConfig{
		Query:   pathQuery(t),
		Private: "R2",
		Release: cfg,
		Budget:  2, // two fresh releases
		Drift:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v0.Sens == nil {
		t.Fatal("no sensitivity snapshot on a private query")
	}
	var sum int64
	for _, s := range v0.Sens {
		sum += s
	}
	if sum != v0.Count {
		t.Fatalf("Σ sens = %d, count = %d (every output tuple passes one private row)", sum, v0.Count)
	}

	r1, err := srv.Release(id, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Fresh || r1.Spent != 1 || r1.TotalSpent != 1 {
		t.Fatalf("first release: %+v", r1)
	}
	if !r1.HasBudget || r1.Remaining != 1 {
		t.Fatalf("remaining = %g after first release", r1.Remaining)
	}
	// Unchanged data: replay, free of charge.
	r2, err := srv.Release(id, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Fresh || r2.Spent != 0 || r2.Run.Noisy != r1.Run.Noisy {
		t.Fatalf("replay: %+v", r2)
	}

	// Drive the count far enough to drift: insert many R2 rows.
	var ups []relation.Update
	for i := 0; i < 20; i++ {
		ups = append(ups, relation.Update{Rel: "R2", Row: relation.Tuple{int64(i % 3), int64(i % 3)}, Insert: true})
	}
	_, to, err := srv.Append(ups)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	r3, err := srv.Release(id, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Fresh || r3.TotalSpent != 2 {
		t.Fatalf("post-drift release: %+v", r3)
	}
	if r3.SensEpoch != to {
		t.Fatalf("sens snapshot at epoch %d, want refresh at %d", r3.SensEpoch, to)
	}

	// Budget is now exhausted: drift again and the release must refuse.
	_, to, err = srv.Append(ups)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Release(id, rand.New(rand.NewSource(4))); err == nil {
		t.Fatal("release past the budget accepted")
	}

	// Releases on non-private queries are refused.
	plainID, _, err := srv.Register(QueryConfig{ID: "plain", Query: pathQuery(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Release(plainID, rand.New(rand.NewSource(5))); err == nil {
		t.Fatal("release on non-private query accepted")
	}
}

// TestServeSensSnapshotConsistency checks that the published sensitivity
// snapshot always equals the from-scratch per-tuple sensitivities of its
// SensEpoch (sorted), across a replayed stream.
func TestServeSensSnapshotConsistency(t *testing.T) {
	db := testDB(t, 10, 3, 9, "R1", "R2", "R3")
	stream := workload.UpdateStream(db, 40, 0.4, 13)
	srv, err := New(db, Options{Parallelism: 2, BatchSize: 4, DriftFraction: -1}) // refresh every epoch
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, _, err := srv.Register(QueryConfig{
		Query:   pathQuery(t),
		Private: "R2",
		Release: mechanism.TSensDPConfig{Epsilon: 1, Bound: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(stream); off += 4 {
		end := off + 4
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
		if v.SensEpoch != v.Epoch {
			t.Fatalf("DriftFraction<0 must refresh every epoch: sens %d, view %d", v.SensEpoch, v.Epoch)
		}
		cur := replayPrefix(t, db, stream, int(v.Epoch))
		fn, err := core.TupleSensitivities(pathQuery(t), cur, "R2", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows := cur.Relation("R2").Rows
		want := make([]int64, len(rows))
		for i, row := range rows {
			want[i] = fn(row)
		}
		if len(want) != len(v.Sens) {
			t.Fatalf("epoch %d: snapshot has %d entries, scratch %d", v.Epoch, len(v.Sens), len(want))
		}
		got := append([]int64(nil), v.Sens...)
		sortInts(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("epoch %d: sorted sens[%d] = %d, scratch %d", v.Epoch, i, got[i], want[i])
			}
		}
	}
}

func sortInts(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func TestServeRegisterValidation(t *testing.T) {
	db := testDB(t, 4, 3, 4, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Register(QueryConfig{}); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, _, err := srv.Register(QueryConfig{Query: pathQuery(t), Private: "NOPE"}); err == nil {
		t.Fatal("private relation outside the query accepted")
	}
	if _, _, err := srv.Register(QueryConfig{Query: pathQuery(t), Private: "R2"}); err == nil {
		t.Fatal("private query without release config accepted")
	}
	if _, _, err := srv.Register(QueryConfig{ID: "a", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Register(QueryConfig{ID: "a", Query: pathQuery(t)}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	// a's exact session has the same plan key; a top-k registration must
	// not attach to it.
	if _, _, err := srv.Register(QueryConfig{Query: pathQuery(t), Options: core.Options{TopK: 4}}); err == nil {
		t.Fatal("top-k query accepted")
	}
	if _, err := srv.View("missing"); err == nil {
		t.Fatal("view of unknown query accepted")
	}
}

// TestServeLogCompaction checks that the drained prefix of the update log
// is released instead of retained for the lifetime of the server: after a
// long applied stream, the retained slice must cover only the tail.
func TestServeLogCompaction(t *testing.T) {
	db := testDB(t, 10, 3, 31, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Register(QueryConfig{ID: "q", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	stream := workload.UpdateStream(db, 200, 0.4, 17)
	for off := 0; off < len(stream); off += 8 {
		end := off + 8
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
	}
	srv.logMu.Lock()
	base, live := srv.logBase, len(srv.log)
	srv.logMu.Unlock()
	if base < int64(len(stream))-16 {
		t.Fatalf("log base %d after %d drained entries: prefix not compacted", base, len(stream))
	}
	if live > 16 {
		t.Fatalf("retained %d log entries with an empty backlog", live)
	}
}

// TestServeCloseDrainsAcknowledged is the regression test for the
// acknowledged-write-loss bug: a successful Append must be folded into the
// published views by a graceful Close, even when Close races the drain.
// (The old Close abandoned the backlog, silently dropping updates whose
// Append had already returned success.)
func TestServeCloseDrainsAcknowledged(t *testing.T) {
	db := testDB(t, 10, 4, 21, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 2, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := srv.Register(QueryConfig{Query: pathQuery(t)})
	if err != nil {
		t.Fatal(err)
	}
	// A long stream against a tiny batch size guarantees a deep backlog is
	// still pending when Close runs.
	stream := workload.UpdateStream(db, 200, 0.4, 22)
	_, to, err := srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // no WaitApplied: Close itself must finish the fold
	if got := srv.Epoch(); got != to {
		t.Fatalf("epoch %d after graceful close, want %d (acknowledged appends lost)", got, to)
	}
	v, err := srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	cur := replayPrefix(t, db, stream, len(stream))
	want, err := core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != to || v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("post-close view (epoch %d: %d, %d), want (epoch %d: %d, %d)",
			v.Epoch, v.Count, v.LS.LS, to, want.Count, want.LS)
	}
	// Appends after Close are refused; a second Close is a no-op.
	if _, _, err := srv.Append(stream[:1]); err == nil {
		t.Fatal("append accepted after Close")
	}
	srv.Close()
}

// TestServeCloseNowAbandonsBacklog pins the old behavior under its new
// name: CloseNow stops without waiting out the backlog, and reads keep
// answering from whatever was last published.
func TestServeCloseNowAbandons(t *testing.T) {
	db := testDB(t, 10, 4, 23, "R1", "R2", "R3")
	srv, err := New(db, Options{Parallelism: 2, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := srv.Register(QueryConfig{Query: pathQuery(t)})
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.UpdateStream(db, 100, 0.4, 24)
	if _, _, err := srv.Append(stream); err != nil {
		t.Fatal(err)
	}
	srv.CloseNow()
	// Whatever epoch was reached, the published view is still readable and
	// self-consistent.
	v, err := srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	cur := replayPrefix(t, db, stream, int(v.Epoch))
	want, err := core.LocalSensitivity(pathQuery(t), cur, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Count != want.Count || v.LS.LS != want.LS {
		t.Fatalf("post-CloseNow view at epoch %d (%d, %d), scratch (%d, %d)",
			v.Epoch, v.Count, v.LS.LS, want.Count, want.LS)
	}
	if _, _, err := srv.Append(stream[:1]); err == nil {
		t.Fatal("append accepted after CloseNow")
	}
}
