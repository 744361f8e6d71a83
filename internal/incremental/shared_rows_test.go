package incremental

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
)

// rowsMultiset renders a relation's rows as a sorted list, so two copies
// compare equal exactly when they hold the same multiset.
func rowsMultiset(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSharedRowsLockstepDifferential feeds one random stream, including
// deletes of absent rows, wrong-arity rows and an unknown relation, to
// identical, partially overlapping and pruned-relation sessions opened in
// one store, stepped in lockstep from a rotating seat, and to a
// private twin of each. After every step each shared session must match its
// twin on the error, Count, LS, Has and the Rows multiset of every relation,
// while all shared sessions read one copy of each relation they reference.
func TestSharedRowsLockstepDifferential(t *testing.T) {
	atoms := []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	queries := []*query.Query{
		query.MustNew("path3", atoms, nil),
		query.MustNew("path3", atoms, nil),      // identical
		query.MustNew("prefix", atoms[:2], nil), // prunes R3
		query.MustNew("suffix", atoms[1:], nil), // prunes R1
	}
	rng := rand.New(rand.NewSource(61))
	_, db, opts := buildCase(t, streamCase{name: "path", atoms: atoms}, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	var shared, private []*Session
	for _, q := range queries {
		s := openIn(t, store, q, db, opts)
		p, err := Open(q, db, Options{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		shared, private = append(shared, s), append(private, p)
	}
	if st := store.Stats(); st.Rows != 3 || st.SharedRows != 3 {
		t.Fatalf("store after opens: %+v, want 3 relations, each shared", st)
	}

	rels := []string{"R1", "R2", "R3"}
	errs := make([]error, len(shared))
	for step := 0; step < 150; step++ {
		up := randomUpdate(rng, m, rels, 4)
		switch rng.Intn(10) {
		case 0: // values outside the domain: never present
			up = Update{Rel: up.Rel, Row: relation.Tuple{9, 9}}
		case 1:
			up = Update{Rel: up.Rel, Row: relation.Tuple{1}, Insert: rng.Intn(2) == 0}
		case 2:
			up = Update{Rel: "NOPE", Row: relation.Tuple{1, 1}, Insert: true}
		}
		for k := range shared {
			i := (step + k) % len(shared)
			errs[i] = shared[i].Apply([]Update{up})
		}
		for i, p := range private {
			want := p.Apply([]Update{up})
			if errText(errs[i]) != errText(want) {
				t.Fatalf("step %d, %s, session %d: error %v, private twin %v", step, fmt.Sprint(up), i, errs[i], want)
			}
			if i == 0 && want == nil {
				m.apply(t, up) // path3 references every relation
			}
		}
		for i, s := range shared {
			p := private[i]
			if s.Count() != p.Count() {
				t.Fatalf("step %d, session %d: count %d, private twin %d", step, i, s.Count(), p.Count())
			}
			got, err := s.LS()
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.LS()
			if err != nil {
				t.Fatal(err)
			}
			if got.LS != want.LS || len(got.PerRelation) != len(want.PerRelation) {
				t.Fatalf("step %d, session %d: LS %d, private twin %d", step, i, got.LS, want.LS)
			}
			for rel, w := range want.PerRelation {
				if g := got.PerRelation[rel]; g == nil || g.Sensitivity != w.Sensitivity {
					t.Fatalf("step %d, session %d: δ(%s) %+v, private twin %d", step, i, rel, g, w.Sensitivity)
				}
			}
			for _, rel := range rels {
				if g, w := rowsMultiset(s.Rows(rel)), rowsMultiset(p.Rows(rel)); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d, session %d: rows of %s %v, private twin %v", step, i, rel, g, w)
				}
			}
		}
		for _, rel := range rels {
			var first *relation.Tuple
			for i, s := range shared {
				if rows := s.Rows(rel); len(rows) > 0 {
					if first == nil {
						first = &rows[0]
					} else if &rows[0] != first {
						t.Fatalf("step %d: session %d reads its own copy of %s", step, i, rel)
					}
				}
			}
		}
		if step%25 == 24 {
			checkAgainstScratch(t, shared[0], m, opts, step)
		}
	}
}

// TestSharedRowsRebuildAndBulkApply pins the take-private paths: a
// subscriber that rebuilds, or applies a bulk batch, works on its own copy
// of the rows the others still hold, leaving theirs untouched, and every
// session stays exact once the others apply the same updates.
func TestSharedRowsRebuildAndBulkApply(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(67))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	var ss []*Session
	for i := 0; i < 3; i++ {
		s, err := store.Open(q, db, Options{Options: opts, BulkThreshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	a, b, c := ss[0], ss[1], ss[2]
	rels := []string{"R1", "R2", "R3"}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			up := randomUpdate(rng, m, rels, 4)
			m.apply(t, up)
			for _, s := range ss {
				if err := s.Apply([]Update{up}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sharedRows := func() map[string][]string {
		out := make(map[string][]string)
		for _, rel := range rels {
			out[rel] = rowsMultiset(b.Rows(rel))
		}
		return out
	}
	feed(10)

	before := sharedRows()
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if a.Store() == store || &a.Rows("R1")[0] == &b.Rows("R1")[0] {
		t.Fatal("rebuilt session still reads the store's rows")
	}
	if got := sharedRows(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rebuild changed the shared rows: %v, want %v", got, before)
	}
	if st := store.Stats(); st.Subscribers != 2 || st.Rows != 3 || st.SharedRows != 3 {
		t.Fatalf("store after one subscriber rebuilt: %+v", st)
	}
	feed(5)

	batch := make([]Update, 6)
	for i := range batch {
		batch[i] = randomUpdate(rng, m, rels, 4)
		m.apply(t, batch[i])
	}
	before = sharedRows()
	if err := c.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if c.Store() == store || c.Rebuilds() != 1 {
		t.Fatalf("bulk batch did not rebuild into a store of its own (rebuilds %d)", c.Rebuilds())
	}
	if got := sharedRows(); !reflect.DeepEqual(got, before) {
		t.Fatalf("bulk batch changed the shared rows: %v, want %v", got, before)
	}
	for _, up := range batch {
		for _, s := range []*Session{a, b} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for step := 0; step < 10; step++ {
		feed(1)
		for _, s := range ss {
			checkAgainstScratch(t, s, m, opts, step)
		}
	}
}

// TestSharedRowsOpenRowCountMismatch pins the O(1) rows check of an open:
// an open over a relation that differs from the store's copy only by a
// duplicate row — so every join table would still match in schema and live
// rows — is refused with errCollision and leaves the store's subscribers
// and entries as they were.
func TestSharedRowsOpenRowCountMismatch(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(71)), 12, 4)
	store := NewPlanStore()
	incumbent := openIn(t, store, q, db, opts)

	dup := db.Clone()
	r := dup.Relation("R1")
	r.Rows = append(r.Rows, r.Rows[0].Clone())
	before, stats := storeState(store, 1), store.Stats()
	if _, err := store.Open(q, dup, Options{Options: opts}); !errors.Is(err, errCollision) {
		t.Fatalf("open over a row-count mismatch: %v, want errCollision", err)
	}
	if got := storeState(store, 1); !reflect.DeepEqual(got, before) || store.Stats() != stats {
		t.Fatalf("refused open changed the store:\n got %v\nwant %v", got, before)
	}
	m := newMirror(db)
	up := Update{Rel: "R1", Row: relation.Tuple{1, 1}, Insert: true}
	m.apply(t, up)
	if err := incumbent.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, incumbent, m, opts, 0)
}

// TestSharedRowsOutOfLockstepFails pins the guard behind the rows tier's
// one-position outcome: a subscriber two positions behind the rows fails
// instead of applying the update a second time.
func TestSharedRowsOutOfLockstepFails(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(83)), 12, 4)
	store := NewPlanStore()
	a := openIn(t, store, q, db, opts)
	b := openIn(t, store, q, db, opts)
	ups := []Update{
		{Rel: "R1", Row: relation.Tuple{7, 7}, Insert: true},
		{Rel: "R1", Row: relation.Tuple{8, 8}, Insert: true},
	}
	if err := a.Apply(ups); err != nil {
		t.Fatal(err)
	}
	n := len(a.Rows("R1"))
	if err := b.Apply(ups[:1]); err == nil {
		t.Fatal("subscriber two positions behind applied an update")
	}
	if len(a.Rows("R1")) != n {
		t.Fatal("update applied to the shared rows twice")
	}
}

// pathSelQuery is a selection variant of the path query: it shares the R1
// and R2 subtrees (nodes and bases) with the path query, and not R3's.
func pathSelQuery(tc streamCase) *query.Query {
	return query.MustNew("path_sel", tc.atoms, map[string][]query.Predicate{
		"R3": {{Var: "D", Op: query.Le, Value: 2}},
	})
}

// storeState renders every entry of a store that at least minRefs sessions
// hold — refcounts, tables, positions, node slots and relation rows — keyed
// by the entry's key, for before/after checks.
func storeState(ps *PlanStore, minRefs int) map[string]string {
	out := make(map[string]string)
	ps.bases.Range(func(e *internedBase) {
		if b := e.Val; e.Refs >= minRefs {
			out["base "+e.Key] = fmt.Sprint(e.Refs, b.pos, rowsOf(b.table), b.table.Cnt)
		}
	})
	ps.nodes.Range(func(e *internedNode) {
		if n := e.Val; e.Refs >= minRefs {
			out["node "+e.Key] = fmt.Sprintf("%d %d %v %v %v %v at=%d %p %p",
				e.Refs, n.pos, rowsOf(n.rel), n.rel.Cnt, rowsOf(n.bot), n.bot.Cnt, n.at, n.drel, n.dbot)
		}
	})
	ps.rows.Range(func(e *internedRows) {
		if r := e.Val; e.Refs >= minRefs {
			out["rows "+e.Key] = fmt.Sprint(e.Refs, r.pos, r.at, r.err, r.rel.Rows)
		}
	})
	return out
}

// TestSharedSlotOutOfLockstepFails pins the invariant behind the node
// slots' one position: with the path query and a selection variant in one
// store, updates to R2 land in a node both plans share, and a subscriber two
// positions behind fails instead of reading the slot of another position,
// leaving every shared table, slot and row as it found them.
func TestSharedSlotOutOfLockstepFails(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(83)), 12, 4)
	store := NewPlanStore()
	a := openIn(t, store, q, db, opts)
	b := openIn(t, store, pathSelQuery(tc), db, opts)
	node := a.snode[a.memberOf["R2"].ui]
	if node.Refs < 2 || b.snode[b.memberOf["R2"].ui] != node {
		t.Fatal("R2 does not land in a node both plans share")
	}
	ups := []Update{
		{Rel: "R2", Row: relation.Tuple{1, 2}, Insert: true},
		{Rel: "R2", Row: relation.Tuple{2, 1}, Insert: true},
	}
	if err := a.Apply(ups); err != nil {
		t.Fatal(err)
	}
	if node.Val.at != 1 || node.Val.drel == nil || node.Val.dbot == nil {
		t.Fatalf("lead left the shared node's slot at position %d (drel %v, dbot %v), want both deltas of position 1",
			node.Val.at, node.Val.drel, node.Val.dbot)
	}
	before := storeState(store, 2)
	if err := b.Apply(ups[:1]); err == nil {
		t.Fatal("subscriber two positions behind applied an update")
	}
	if got := storeState(store, 2); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed subscriber changed the store:\n got %v\nwant %v", got, before)
	}
}

// TestSharedLockstepFailureSticks pins that a lockstep failure is final:
// with the path query and a selection variant in one store, a subscriber
// that fails an R2 insert because the store is two positions ahead does not
// advance, and fails the next insert with the same error. Were it to
// advance, it would replay the shared rows and slot of that insert and
// succeed, with its own R3 tables never having seen the first one.
func TestSharedLockstepFailureSticks(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(83)), 12, 4)
	store := NewPlanStore()
	a := openIn(t, store, q, db, opts)
	b := openIn(t, store, pathSelQuery(tc), db, opts)
	ups := []Update{
		{Rel: "R2", Row: relation.Tuple{1, 2}, Insert: true},
		{Rel: "R2", Row: relation.Tuple{2, 1}, Insert: true},
	}
	if err := a.Apply(ups); err != nil {
		t.Fatal(err)
	}
	lost := b.Apply(ups[:1])
	if lost == nil {
		t.Fatal("subscriber two positions behind applied an update")
	}
	for _, up := range ups[1:] {
		if err := b.Apply([]Update{up}); !errors.Is(err, lost) {
			t.Fatalf("update after a lockstep failure: %v, want %v", err, lost)
		}
		if err := b.Insert(up.Rel, up.Row); !errors.Is(err, lost) {
			t.Fatalf("insert after a lockstep failure: %v, want %v", err, lost)
		}
	}
}

// sharedUpdateAllocs pins the allocations of one insert plus one delete of
// an R2 row applied in lockstep to the path query and a selection variant
// in one store: 257 (255 measured) since delta outputs keep their rows in
// the group table's key arena, 271 (269) while every output row carried a
// []Tuple header, 277 while nodes kept a memo map.
const sharedUpdateAllocs = 257

// TestSharedLockstepUpdateAllocs pins two subscribers' allocations for one
// insert plus one delete, each applied to both in lockstep, at
// sharedUpdateAllocs.
func TestSharedLockstepUpdateAllocs(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(73)), 12, 4)
	store := NewPlanStore()
	a := openIn(t, store, q, db, opts)
	b := openIn(t, store, pathSelQuery(tc), db, opts)
	row := relation.Tuple{1, 2}
	step := func() {
		for _, insert := range []bool{true, false} {
			for _, s := range []*Session{a, b} {
				if err := s.applyOne(Update{Rel: "R2", Row: row, Insert: insert}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	step() // compile the plans and grow the tables once
	if allocs := testing.AllocsPerRun(100, step); allocs > sharedUpdateAllocs {
		t.Fatalf("lockstep insert+delete on two subscribers: %v allocs, want at most %d", allocs, sharedUpdateAllocs)
	}
}

// soleUpdateAllocs pins the allocations of one insert plus one delete on a
// standalone path-query session: 147 since delta outputs keep their rows in
// the group table's key arena, 155 while every output row carried a []Tuple
// header (a sole subscriber's delta records stopped allocating, first by
// writing no memo, now a slot write), 159 while it wrote a delta memo per
// patched node.
const soleUpdateAllocs = 147

// TestSoleSubscriberUpdateAllocs pins a standalone session's allocations
// for one insert plus one delete at soleUpdateAllocs.
func TestSoleSubscriberUpdateAllocs(t *testing.T) {
	tc := streamCases()[0] // path
	q, db, opts := buildCase(t, tc, rand.New(rand.NewSource(73)), 12, 4)
	s, err := Open(q, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	row := relation.Tuple{1, 2}
	step := func() {
		if err := s.Insert("R2", row); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("R2", row); err != nil {
			t.Fatal(err)
		}
	}
	step() // compile the plans and grow the tables once
	if allocs := testing.AllocsPerRun(100, step); allocs > soleUpdateAllocs {
		t.Fatalf("insert+delete on a standalone session: %v allocs, want at most %d", allocs, soleUpdateAllocs)
	}
}
