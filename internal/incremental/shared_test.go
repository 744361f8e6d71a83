package incremental

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tsens/internal/core"
	"tsens/internal/obs"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// openIn opens a session over db in store.
func openIn(t *testing.T, store *PlanStore, q *query.Query, db *relation.Database, opts core.Options) *Session {
	t.Helper()
	s, err := store.Open(q, db, Options{Options: opts})
	if err != nil {
		t.Fatalf("open in store: %v", err)
	}
	return s
}

// TestSharedDifferentialIdentical replays random update streams through
// three identically-registered sessions attached to one PlanStore, rotating
// which session applies first so lead/follower election is exercised from
// every seat, and asserts each session equals the from-scratch solver after
// every step. Covers every query shape of the private differential test.
func TestSharedDifferentialIdentical(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			q, db, opts := buildCase(t, tc, rng, 12, 4)
			m := newMirror(db)
			store := NewPlanStore()
			var sessions []*Session
			var first PlanStoreStats
			for i := 0; i < 3; i++ {
				sessions = append(sessions, openIn(t, store, q, db, opts))
				got := store.Stats()
				if i == 0 {
					first = got
				} else if got.Bases != first.Bases || got.Nodes != first.Nodes || got.Rows != first.Rows {
					t.Fatalf("session %d of identical query did not fully share: %+v, first %+v", i, got, first)
				}
			}
			if got := store.Stats(); got.SharedNodes != got.Nodes || got.Subscribers != 3 {
				t.Fatalf("store stats after 3 identical opens: %+v", got)
			}
			rels := tc.rels
			if rels == nil {
				for _, a := range tc.atoms {
					rels = append(rels, a.Relation)
				}
			}
			for step := 0; step < 60; step++ {
				up := randomUpdate(rng, m, rels, 4)
				m.apply(t, up)
				for k := range sessions {
					s := sessions[(step+k)%len(sessions)]
					if err := s.Apply([]Update{up}); err != nil {
						t.Fatalf("step %d: apply: %v", step, err)
					}
				}
				for si, s := range sessions {
					checkAgainstScratch(t, s, m, opts, step*10+si)
				}
				if step%15 == 7 {
					for _, a := range tc.atoms {
						if sk := opts.SkipRelations; len(sk) > 0 && sk[0] == a.Relation {
							continue
						}
						checkSensitivityFn(t, sessions[step%len(sessions)], m, opts, a.Relation, step)
					}
				}
			}
		})
	}
}

// TestSharedDifferentialOverlap runs two different queries with a common
// subtree — a 3-atom path and its 2-atom prefix — through one store: the
// leaf node and its base intern once, everything else once per query, and
// both sessions must stay exact while the stream also carries updates for
// the relation only one of them references.
func TestSharedDifferentialOverlap(t *testing.T) {
	atoms3 := []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	q3, err := query.New("path3", atoms3, nil)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := query.New("path2", atoms3[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	_, db, opts := buildCase(t, streamCase{name: "path", atoms: atoms3}, rng, 12, 4)
	m := newMirror(db)

	store := NewPlanStore()
	a := openIn(t, store, q3, db, opts)
	b := openIn(t, store, q2, db, opts)
	if st := store.Stats(); st.SharedNodes == 0 || st.SharedBases == 0 {
		t.Fatalf("prefix query shared nothing: %+v", st)
	}

	rels := []string{"R1", "R2", "R3"}
	for step := 0; step < 80; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		first, second := a, b
		if step%2 == 1 {
			first, second = b, a
		}
		if err := first.Apply([]Update{up}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := second.Apply([]Update{up}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkAgainstScratch(t, a, m, opts, step)
		// The 2-atom session is checked against a mirror restricted to the
		// relations it kept (R3 updates must be validated no-ops for it).
		m2 := &mirror{attrs: map[string][]string{}, rows: map[string][]relation.Tuple{}}
		for _, rel := range []string{"R1", "R2"} {
			m2.attrs[rel] = m.attrs[rel]
			m2.rows[rel] = m.rows[rel]
		}
		checkAgainstScratch(t, b, m2, opts, step)
	}
}

// TestSharedOpenQuiescence pins the quiescence precondition: when one
// subscriber of a partially-shared store has applied an update the other
// has not, entries sit at different positions and an open must be refused,
// leaving the store as it was, even over the caught-up database; once the
// laggard catches up, an open over that database succeeds.
func TestSharedOpenQuiescence(t *testing.T) {
	atoms3 := []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	q3 := query.MustNew("path3", atoms3, nil)
	q2 := query.MustNew("path2", atoms3[:2], nil)
	rng := rand.New(rand.NewSource(5))
	_, db, opts := buildCase(t, streamCase{name: "path", atoms: atoms3}, rng, 8, 4)

	store := NewPlanStore()
	a := openIn(t, store, q3, db, opts)
	b := openIn(t, store, q2, db, opts)

	up := Update{Rel: "R1", Row: relation.Tuple{9, 9}, Insert: true}
	m := newMirror(db)
	m.apply(t, up)
	caughtUp := m.database(t)
	if err := b.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	if _, err := store.Open(q3, caughtUp, Options{Options: opts}); err == nil {
		t.Fatal("open succeeded in a mid-round store")
	}
	if got := store.Stats(); got != before {
		t.Fatalf("refused open changed the store: %+v, was %+v", got, before)
	}
	if err := a.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	late := openIn(t, store, q3, caughtUp, opts)
	if a.Count() != late.Count() {
		t.Fatalf("newcomer count %d, incumbent %d", late.Count(), a.Count())
	}
	checkAgainstScratch(t, late, m, opts, 0)
}

// TestSharedOpenReadsHeldRows pins that an open in a store that already
// holds every relation the query reads copies none of them: the session's
// Rows alias the store's copy, and the open allocates at least one object
// per row of those relations fewer than the same open in an empty store,
// which clones each row and builds a row multiset keyed per row.
func TestSharedOpenReadsHeldRows(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(89)), 12, 4)
	store := NewPlanStore()
	incumbent := openIn(t, store, pathSelQuery(tc), db, opts)
	s := openIn(t, store, q, db, opts)
	rows := 0
	for _, a := range q.Atoms {
		got, want := s.Rows(a.Relation), incumbent.Rows(a.Relation)
		if len(got) == 0 || &got[0] != &want[0] {
			t.Fatalf("session reads its own copy of %s", a.Relation)
		}
		rows += len(want)
	}
	s.ReleaseShared()
	openAndRelease := func(ps *PlanStore) func() {
		return func() {
			s, err := ps.Open(q, db, Options{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			s.ReleaseShared()
		}
	}
	held := testing.AllocsPerRun(20, openAndRelease(store))
	empty := testing.AllocsPerRun(20, openAndRelease(NewPlanStore()))
	t.Logf("open: %v allocs in a store holding its %d rows, %v in an empty store", held, rows, empty)
	if empty-held < float64(rows) {
		t.Fatalf("open in a store holding every relation: %v allocs, in an empty store %v: want at least %d (one per row) fewer",
			held, empty, rows)
	}
}

// TestSharedOpenPoisonedStore pins that a poisoned store refuses an open,
// leaving its subscribers and entries as they were, and reports the poison
// through Err, as its subscribers' updates do.
func TestSharedOpenPoisonedStore(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(97)), 12, 4)
	store := NewPlanStore()
	a := openIn(t, store, q, db, opts)
	if err := store.Err(); err != nil {
		t.Fatalf("fresh store reports %v", err)
	}
	poison := errors.New("propagation failed")
	a.poisonStore(poison)
	if err := store.Err(); err != poison {
		t.Fatalf("poisoned store reports %v, want %v", err, poison)
	}
	before, stats := storeState(store, 1), store.Stats()
	if _, err := store.Open(pathSelQuery(tc), db, Options{Options: opts}); !errors.Is(err, poison) {
		t.Fatalf("open in a poisoned store: %v, want the poison", err)
	}
	if got := storeState(store, 1); !reflect.DeepEqual(got, before) || store.Stats() != stats {
		t.Fatalf("refused open changed the store:\n got %v\nwant %v", got, before)
	}
	if err := a.Insert("R1", relation.Tuple{1, 1}); !errors.Is(err, poison) {
		t.Fatalf("update in a poisoned store: %v, want the poison", err)
	}
}

// TestSharedReleaseAndRefcounts pins refcount release: dropping one of two
// identical subscribers leaves every entry live for the survivor (which
// must keep answering exactly), and dropping the last empties the store.
func TestSharedReleaseAndRefcounts(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(31))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	a := openIn(t, store, q, db, opts)
	b := openIn(t, store, q, db, opts)
	if st := store.Stats(); st.SharedNodes != st.Nodes || st.SharedBases != st.Bases || st.SharedRows != st.Rows {
		t.Fatalf("identical query did not fully share: %+v", st)
	}

	rels := []string{"R1", "R2", "R3"}
	feedBoth := func(step int) {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		for _, s := range []*Session{a, b} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	for step := 0; step < 20; step++ {
		feedBoth(step)
	}
	before := store.Stats()
	if before.SharedNodes == 0 || before.SharedRows == 0 {
		t.Fatalf("expected shared entries before release: %+v", before)
	}

	a.ReleaseShared()
	after := store.Stats()
	if after.Subscribers != 1 || after.SharedNodes != 0 || after.SharedRows != 0 {
		t.Fatalf("release of one subscriber: %+v", after)
	}
	if after.Nodes != before.Nodes || after.Bases != before.Bases || after.Rows != before.Rows {
		t.Fatalf("entries vanished while still referenced: before %+v after %+v", before, after)
	}
	// The survivor keeps the canonical tables and stays exact as sole lead.
	for step := 0; step < 20; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		if err := b.Apply([]Update{up}); err != nil {
			t.Fatalf("survivor step %d: %v", step, err)
		}
		checkAgainstScratch(t, b, m, opts, 100+step)
	}
	b.ReleaseShared()
	if got := store.Stats(); got.Bases != 0 || got.Nodes != 0 || got.Rows != 0 || got.Subscribers != 0 {
		t.Fatalf("store not empty after last release: %+v", got)
	}
	if b.Store() != nil {
		t.Fatal("session still reports a store after release")
	}
}

// TestSharedRebuildDetaches pins the detach path: a session that rebuilds
// (explicitly here; tombstone compaction and bulk batches route through
// the same path) moves into a store of its own, keeps answering exactly,
// and leaves its former co-subscriber intact.
func TestSharedRebuildDetaches(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(43))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	a := openIn(t, store, q, db, opts)
	b := openIn(t, store, q, db, opts)

	rels := []string{"R1", "R2", "R3"}
	for step := 0; step < 10; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		for _, s := range []*Session{a, b} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if a.Store() == store || a.Store().Stats().Subscribers != 1 {
		t.Fatal("session did not move into a store of its own on rebuild")
	}
	if got := store.Stats(); got.Subscribers != 1 {
		t.Fatalf("store after rebuild detach: %+v", got)
	}
	for step := 0; step < 20; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		for _, s := range []*Session{a, b} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatalf("post-detach step %d: %v", step, err)
			}
		}
		checkAgainstScratch(t, a, m, opts, 200+step)
		checkAgainstScratch(t, b, m, opts, 300+step)
	}
}

// TestSharedStoreCompacts feeds two different plans in one store — the
// path query and a selection variant sharing its R1 and R2 subtrees — a
// churn stream of 4,000 updates to R2, each pair inserting a row with a
// fresh key and deleting the oldest row, with a random update to R1 or R3
// after every fourth, so that plans probing the compacted tables through
// their row indexes run too. Tables shared by both sessions are compacted
// in place by whichever session patches them (the sessions take turns
// applying first): after every update every maintained table stays at or
// under the watermark, both sessions stay in the store without a rebuild,
// and both equal a from-scratch solve.
func TestSharedStoreCompacts(t *testing.T) {
	const watermark = 0.25
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(7)), 12, 4)
	reg := obs.NewRegistry()
	store := NewPlanStore()
	var sessions []*Session
	for _, qq := range []*query.Query{q, pathSelQuery(tc)} {
		s, err := store.Open(qq, db, Options{Options: opts, RebuildTombstoneRatio: watermark, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if st := store.Stats(); st.SharedBases == 0 || st.SharedNodes == 0 {
		t.Fatalf("the two plans share no table: %+v", st)
	}
	m := newMirror(db)
	apply := func(step int, up Update) {
		m.apply(t, up)
		for k := range sessions {
			if err := sessions[(step+k)%2].Apply([]Update{up}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		for _, s := range sessions {
			checkTombstoneBound(t, s, watermark, step)
			checkAgainstScratch(t, s, m, opts, step)
		}
	}
	live := slices.Clone(db.Relation("R2").Rows) // oldest first
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 4000; step++ {
		if step%2 == 0 {
			up := Update{Rel: "R2", Row: relation.Tuple{int64(100 + step), int64(rng.Intn(4))}, Insert: true}
			live = append(live, up.Row)
			apply(step, up)
		} else {
			apply(step, Update{Rel: "R2", Row: live[0], Insert: false})
			live = live[1:]
		}
		if step%4 == 3 {
			apply(step, randomUpdate(rng, m, []string{"R1", "R3"}, 4))
		}
	}
	for i, s := range sessions {
		if s.Rebuilds() != 0 || s.Store() != store {
			t.Fatalf("session %d rebuilt %d times (store kept: %v), want in-place compaction", i, s.Rebuilds(), s.Store() == store)
		}
	}
	if n := reg.Counter("tsens_session_compactions_total", "").Value(); n == 0 {
		t.Fatal("no table was compacted")
	}
}

// TestOpenPrunesUnreferencedRelations pins the subset clone: relations the
// query never references are not cloned, yet updates addressed to them
// validate arity and no-op, and truly unknown relations still error.
func TestOpenPrunesUnreferencedRelations(t *testing.T) {
	tc := streamCases()[4] // disconnected_with_skip: carries UNUSED(Z)
	rng := rand.New(rand.NewSource(3))
	q, db, opts := buildCase(t, tc, rng, 8, 4)
	s, err := Open(q, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows("UNUSED") != nil {
		t.Fatal("unreferenced relation was cloned into the session")
	}
	before := s.Count()
	if err := s.Insert("UNUSED", relation.Tuple{1}); err != nil {
		t.Fatalf("insert into unreferenced relation: %v", err)
	}
	if s.Count() != before {
		t.Fatal("no-op update changed the count")
	}
	if err := s.Insert("UNUSED", relation.Tuple{1, 2}); err == nil {
		t.Fatal("arity mismatch on unreferenced relation not rejected")
	}
	if err := s.Insert("NOPE", relation.Tuple{1}); err == nil {
		t.Fatal("unknown relation accepted")
	}
}
