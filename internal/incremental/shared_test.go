package incremental

import (
	"math/rand"
	"slices"
	"testing"

	"tsens/internal/core"
	"tsens/internal/obs"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// openAdopted opens a session over db and attaches it to store.
func openAdopted(t *testing.T, q *query.Query, db *relation.Database, opts core.Options, store *PlanStore) (*Session, AdoptStats) {
	t.Helper()
	s, err := Open(q, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Adopt(store)
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	return s, st
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
			for i := 0; i < 3; i++ {
				s, st := openAdopted(t, q, db, opts, store)
				if i > 0 && !st.FullShare() {
					t.Fatalf("session %d of identical query did not fully share: %+v", i, st)
				}
				sessions = append(sessions, s)
			}
			if got := store.Stats(); got.SharedNodes != got.Nodes || got.Subscribers != 3 {
				t.Fatalf("store stats after 3 identical adopts: %+v", got)
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
	a, _ := openAdopted(t, q3, db, opts, store)
	b, st := openAdopted(t, q2, db, opts, store)
	if st.NodesShared == 0 || st.BasesShared == 0 {
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

// TestSharedAdoptQuiescence pins the quiescence precondition: when one
// subscriber of a partially-shared store has applied an update the other
// has not, entries sit at different positions and Adopt must refuse; once
// the laggard catches up, Adopt succeeds again.
func TestSharedAdoptQuiescence(t *testing.T) {
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
	a, _ := openAdopted(t, q3, db, opts, store)
	b, _ := openAdopted(t, q2, db, opts, store)

	up := Update{Rel: "R1", Row: relation.Tuple{9, 9}, Insert: true}
	if err := b.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	mid, err := Open(q3, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Adopt(store); err == nil {
		t.Fatal("Adopt succeeded against a mid-round store")
	}
	if err := a.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	late, err := Open(q3, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Insert("R1", relation.Tuple{9, 9}); err != nil {
		t.Fatal(err) // catch the newcomer up to the stream before adopting
	}
	if _, err := late.Adopt(store); err != nil {
		t.Fatalf("Adopt at quiescence: %v", err)
	}
	if a.Count() != late.Count() {
		t.Fatalf("adopted newcomer count %d, incumbent %d", late.Count(), a.Count())
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
	a, _ := openAdopted(t, q, db, opts, store)
	b, st := openAdopted(t, q, db, opts, store)
	if !st.FullShare() {
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
	a, _ := openAdopted(t, q, db, opts, store)
	b, _ := openAdopted(t, q, db, opts, store)

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
		s, err := Open(qq, db, Options{Options: opts, RebuildTombstoneRatio: watermark, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Adopt(store); err != nil {
			t.Fatalf("Adopt: %v", err)
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
