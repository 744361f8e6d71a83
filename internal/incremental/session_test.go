package incremental

import (
	"math/rand"
	"testing"

	"tsens/internal/core"
	"tsens/internal/ghd"
	"tsens/internal/obs"
	"tsens/internal/par"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// mirror is a plain-rows copy of the database that the tests mutate in
// lockstep with the session, used to recompute everything from scratch.
type mirror struct {
	attrs map[string][]string
	rows  map[string][]relation.Tuple
}

func newMirror(db *relation.Database) *mirror {
	m := &mirror{attrs: map[string][]string{}, rows: map[string][]relation.Tuple{}}
	for _, name := range db.Names() {
		r := db.Relation(name)
		m.attrs[name] = r.Attrs
		for _, t := range r.Rows {
			m.rows[name] = append(m.rows[name], t.Clone())
		}
	}
	return m
}

func (m *mirror) apply(t *testing.T, up Update) {
	t.Helper()
	if up.Insert {
		m.rows[up.Rel] = append(m.rows[up.Rel], up.Row.Clone())
		return
	}
	rows := m.rows[up.Rel]
	for i, r := range rows {
		if r.Equal(up.Row) {
			rows[i] = rows[len(rows)-1]
			m.rows[up.Rel] = rows[:len(rows)-1]
			return
		}
	}
	t.Fatalf("mirror: delete of absent tuple %v from %s", up.Row, up.Rel)
}

func (m *mirror) database(t *testing.T) *relation.Database {
	t.Helper()
	var rels []*relation.Relation
	for name, attrs := range m.attrs {
		rows := make([]relation.Tuple, len(m.rows[name]))
		for i, r := range m.rows[name] {
			rows[i] = r.Clone()
		}
		r, err := relation.New(name, attrs, rows)
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

// randomUpdate draws an insert or delete against the mirror's current rows,
// with values from a small domain so joins collide heavily.
func randomUpdate(rng *rand.Rand, m *mirror, rels []string, dom int) Update {
	rel := rels[rng.Intn(len(rels))]
	rows := m.rows[rel]
	if len(rows) > 0 && rng.Intn(100) < 40 {
		return Update{Rel: rel, Row: rows[rng.Intn(len(rows))].Clone(), Insert: false}
	}
	row := make(relation.Tuple, len(m.attrs[rel]))
	for i := range row {
		row[i] = int64(rng.Intn(dom))
	}
	return Update{Rel: rel, Row: row, Insert: true}
}

// checkAgainstScratch compares the session's Count/LS against the one-shot
// solver on the mirror database, including every per-relation sensitivity
// and the consistency of reported witnesses.
func checkAgainstScratch(t *testing.T, s *Session, m *mirror, opts core.Options, step int) {
	t.Helper()
	db := m.database(t)
	want, err := core.LocalSensitivity(s.Query(), db, opts)
	if err != nil {
		t.Fatalf("step %d: scratch: %v", step, err)
	}
	got, err := s.LS()
	if err != nil {
		t.Fatalf("step %d: session LS: %v", step, err)
	}
	if s.Count() != want.Count || got.Count != want.Count {
		t.Fatalf("step %d: count: session %d/%d, scratch %d", step, s.Count(), got.Count, want.Count)
	}
	if got.LS != want.LS {
		t.Fatalf("step %d: LS: session %d, scratch %d", step, got.LS, want.LS)
	}
	if len(got.PerRelation) != len(want.PerRelation) {
		t.Fatalf("step %d: per-relation: %d vs %d entries", step, len(got.PerRelation), len(want.PerRelation))
	}
	for rel, wtr := range want.PerRelation {
		gtr, ok := got.PerRelation[rel]
		if !ok || gtr.Sensitivity != wtr.Sensitivity {
			t.Fatalf("step %d: δ(%s): session %+v, scratch %d", step, rel, gtr, wtr.Sensitivity)
		}
		// A witness claimed to be in the database must actually be there.
		if gtr.InDatabase {
			found := false
			for _, row := range m.rows[rel] {
				match := true
				for i := range row {
					if !gtr.Wildcard[i] && row[i] != gtr.Values[i] {
						match = false
						break
					}
				}
				if match {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("step %d: %s witness %v claimed in database but absent", step, rel, gtr.Values)
			}
		}
	}
}

// checkTombstoneBound checks that no table the session maintains holds
// more than the watermark share of tombstones.
func checkTombstoneBound(t *testing.T, s *Session, watermark float64, step int) {
	t.Helper()
	for c := range s.tabs {
		if float64(c.Tombstones()) > watermark*float64(c.Len()) {
			t.Fatalf("step %d: table over %v holds %d tombstones in %d rows, past the %v watermark", step, c.Attrs, c.Tombstones(), c.Len(), watermark)
		}
	}
}

// checkSensitivityFn compares the session evaluator against the one-shot
// TupleSensitivities on every current row of rel.
func checkSensitivityFn(t *testing.T, s *Session, m *mirror, opts core.Options, rel string, step int) {
	t.Helper()
	if len(m.rows[rel]) == 0 {
		return
	}
	sessFn, err := s.SensitivityFn(rel)
	if err != nil {
		t.Fatalf("step %d: session SensitivityFn(%s): %v", step, rel, err)
	}
	db := m.database(t)
	wantFn, err := core.TupleSensitivities(s.Query(), db, rel, opts)
	if err != nil {
		t.Fatalf("step %d: scratch TupleSensitivities(%s): %v", step, rel, err)
	}
	for _, row := range m.rows[rel] {
		if g, w := sessFn(row), wantFn(row); g != w {
			t.Fatalf("step %d: δ(%s:%v): session %d, scratch %d", step, rel, row, g, w)
		}
	}
}

type streamCase struct {
	name  string
	atoms []query.Atom
	sels  map[string][]query.Predicate
	bags  [][]int // GHD bags for cyclic queries
	skip  []string
	rels  []string // relations to update (defaults to all atoms)
	extra *relation.Relation
}

func streamCases() []streamCase {
	return []streamCase{
		{
			name: "path",
			atoms: []query.Atom{
				{Relation: "R1", Vars: []string{"A", "B"}},
				{Relation: "R2", Vars: []string{"B", "C"}},
				{Relation: "R3", Vars: []string{"C", "D"}},
			},
		},
		{
			name: "star_doubly_acyclic",
			atoms: []query.Atom{
				{Relation: "S0", Vars: []string{"A", "B", "C"}},
				{Relation: "S1", Vars: []string{"A"}},
				{Relation: "S2", Vars: []string{"B"}},
				{Relation: "S3", Vars: []string{"C", "E"}},
			},
		},
		{
			name: "triangle_ghd",
			atoms: []query.Atom{
				{Relation: "T1", Vars: []string{"A", "B"}},
				{Relation: "T2", Vars: []string{"B", "C"}},
				{Relation: "T3", Vars: []string{"C", "A"}},
			},
			bags: [][]int{{0, 1}, {2}},
		},
		{
			name: "path_selections",
			atoms: []query.Atom{
				{Relation: "P1", Vars: []string{"A", "B"}},
				{Relation: "P2", Vars: []string{"B", "C"}},
			},
			sels: map[string][]query.Predicate{
				"P2": {{Var: "C", Op: query.Le, Value: 2}},
			},
		},
		{
			name: "disconnected_with_skip",
			atoms: []query.Atom{
				{Relation: "D1", Vars: []string{"A", "B"}},
				{Relation: "D2", Vars: []string{"B"}},
				{Relation: "D3", Vars: []string{"X", "Y"}},
			},
			skip:  []string{"D2"},
			extra: relation.MustNew("UNUSED", []string{"Z"}, nil),
		},
	}
}

func buildCase(t *testing.T, tc streamCase, rng *rand.Rand, size, dom int) (*query.Query, *relation.Database, core.Options) {
	t.Helper()
	q, err := query.New(tc.name, tc.atoms, tc.sels)
	if err != nil {
		t.Fatal(err)
	}
	var rels []*relation.Relation
	for _, a := range tc.atoms {
		rows := make([]relation.Tuple, 0, size)
		for i := 0; i < size; i++ {
			row := make(relation.Tuple, len(a.Vars))
			for j := range row {
				row[j] = int64(rng.Intn(dom))
			}
			rows = append(rows, row)
		}
		r, err := relation.New(a.Relation, a.Vars, rows)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	if tc.extra != nil {
		rels = append(rels, tc.extra.Clone())
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{SkipRelations: tc.skip}
	if tc.bags != nil {
		opts.Decomposition = ghd.MustFromBags(q, tc.bags)
	}
	return q, db, opts
}

// TestSessionDifferentialStreams replays random update streams through
// sessions over every query shape, asserting Count()/LS() (and periodically
// the tuple-sensitivity evaluator) equal the from-scratch solver after
// every single step, at parallelism 1 and N (the latter on a shared pool).
func TestSessionDifferentialStreams(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	const steps = 60
	for _, tc := range streamCases() {
		for _, par := range []struct {
			name string
			n    int
			pool bool
		}{{"par1", 1, false}, {"parN", 4, true}} {
			t.Run(tc.name+"/"+par.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(tc.name)) * 31))
				q, db, copts := buildCase(t, tc, rng, 12, 4)
				copts.Parallelism = par.n
				if par.pool {
					copts.Pool = pool
				}
				sess, err := Open(q, db, Options{Options: copts})
				if err != nil {
					t.Fatal(err)
				}
				m := newMirror(db)
				updRels := tc.rels
				if updRels == nil {
					for _, a := range tc.atoms {
						updRels = append(updRels, a.Relation)
					}
					if tc.extra != nil {
						updRels = append(updRels, tc.extra.Name)
					}
				}
				checkAgainstScratch(t, sess, m, copts, -1)
				for step := 0; step < steps; step++ {
					up := randomUpdate(rng, m, updRels, 4)
					m.apply(t, up)
					var err error
					if up.Insert {
						err = sess.Insert(up.Rel, up.Row)
					} else {
						err = sess.Delete(up.Rel, up.Row)
					}
					if err != nil {
						t.Fatalf("step %d: %+v: %v", step, up, err)
					}
					checkAgainstScratch(t, sess, m, copts, step)
					if step%15 == 7 {
						checkSensitivityFn(t, sess, m, copts, tc.atoms[0].Relation, step)
					}
				}
				if sess.Updates() != steps {
					t.Fatalf("Updates() = %d, want %d", sess.Updates(), steps)
				}
			})
		}
	}
}

// TestSessionDrainAndRefill empties every relation through the session and
// refills it, exercising zero-row tables, empty botjoin roots, and the
// tombstone paths.
func TestSessionDrainAndRefill(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(99))
	q, db, copts := buildCase(t, tc, rng, 6, 3)
	sess, err := Open(q, db, Options{Options: copts})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(db)
	// Drain.
	for _, a := range tc.atoms {
		for len(m.rows[a.Relation]) > 0 {
			up := Update{Rel: a.Relation, Row: m.rows[a.Relation][0].Clone(), Insert: false}
			m.apply(t, up)
			if err := sess.Delete(up.Rel, up.Row); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstScratch(t, sess, m, copts, -1)
	}
	if sess.Count() != 0 {
		t.Fatalf("empty database count = %d", sess.Count())
	}
	// Refill.
	for i := 0; i < 30; i++ {
		up := randomUpdate(rng, m, []string{"R1", "R2", "R3"}, 3)
		if !up.Insert {
			continue
		}
		m.apply(t, up)
		if err := sess.Insert(up.Rel, up.Row); err != nil {
			t.Fatal(err)
		}
		checkAgainstScratch(t, sess, m, copts, i)
	}
}

// TestSessionBulkFallback checks that large batches rebuild and still agree
// with scratch, and that the rebuild counter reflects it.
func TestSessionBulkFallback(t *testing.T) {
	tc := streamCases()[0]
	rng := rand.New(rand.NewSource(5))
	q, db, copts := buildCase(t, tc, rng, 10, 4)
	sess, err := Open(q, db, Options{Options: copts, BulkThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(db)
	var batch []Update
	for len(batch) < 12 {
		up := randomUpdate(rng, m, []string{"R1", "R2", "R3"}, 4)
		m.apply(t, up)
		batch = append(batch, up)
	}
	if err := sess.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if sess.Rebuilds() != 1 {
		t.Fatalf("Rebuilds() = %d, want 1", sess.Rebuilds())
	}
	checkAgainstScratch(t, sess, m, copts, 0)
	// Small batches stay on the delta path.
	up := randomUpdate(rng, m, []string{"R2"}, 4)
	m.apply(t, up)
	if err := sess.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	if sess.Rebuilds() != 1 {
		t.Fatalf("small batch rebuilt: %d", sess.Rebuilds())
	}
	checkAgainstScratch(t, sess, m, copts, 1)
}

func TestSessionValidation(t *testing.T) {
	tc := streamCases()[0]
	rng := rand.New(rand.NewSource(3))
	q, db, copts := buildCase(t, tc, rng, 4, 3)
	if _, err := Open(q, db, Options{Options: core.Options{TopK: 4}}); err == nil {
		t.Fatal("TopK session accepted")
	}
	sess, err := Open(q, db, Options{Options: copts})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete("R1", relation.Tuple{99, 99}); err == nil {
		t.Fatal("delete of absent tuple accepted")
	}
	if err := sess.Insert("R1", relation.Tuple{1}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := sess.Insert("NOPE", relation.Tuple{1}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := sess.SensitivityFn("NOPE"); err == nil {
		t.Fatal("SensitivityFn on unknown relation accepted")
	}
	// The failed operations must not have corrupted the state.
	m := newMirror(db)
	checkAgainstScratch(t, sess, m, copts, 0)
}

// TestSessionSkippedRelationUpdates updates a skipped relation: it carries
// no multiplicity table of its own but still changes everyone else's.
func TestSessionSkippedRelationUpdates(t *testing.T) {
	tc := streamCases()[4] // disconnected_with_skip
	rng := rand.New(rand.NewSource(11))
	q, db, copts := buildCase(t, tc, rng, 8, 3)
	sess, err := Open(q, db, Options{Options: copts})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(db)
	for step := 0; step < 25; step++ {
		up := randomUpdate(rng, m, []string{"D2", "UNUSED"}, 3)
		m.apply(t, up)
		var err error
		if up.Insert {
			err = sess.Insert(up.Rel, up.Row)
		} else {
			err = sess.Delete(up.Rel, up.Row)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstScratch(t, sess, m, copts, step)
	}
	if _, err := sess.SensitivityFn("D2"); err == nil {
		t.Fatal("SensitivityFn on skipped relation accepted")
	}
}

// TestSessionTombstoneCompaction exercises RebuildTombstoneRatio: deleting
// rows plants zero-count tombstones in the maintained tables, and every
// table that passes the watermark is compacted in place — no table holds
// more than the watermark share afterwards, the session never rebuilds, and
// it agrees with the from-scratch solver throughout.
func TestSessionTombstoneCompaction(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(7))
	q, db, copts := buildCase(t, tc, rng, 12, 4)
	reg := obs.NewRegistry()
	sess, err := Open(q, db, Options{Options: copts, RebuildTombstoneRatio: 0.3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r := sess.TombstoneRatio(); r != 0 {
		t.Fatalf("fresh session tombstone ratio = %g, want 0", r)
	}
	// An evaluator taken before the stream stays valid across compactions.
	fn, err := sess.SensitivityFn("R1")
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(db)
	sawTombstones := false
	for step := 0; len(m.rows["R2"]) > 0; step++ {
		up := Update{Rel: "R2", Row: m.rows["R2"][0].Clone(), Insert: false}
		m.apply(t, up)
		if err := sess.Delete(up.Rel, up.Row); err != nil {
			t.Fatal(err)
		}
		checkTombstoneBound(t, sess, 0.3, step)
		if sess.TombstoneRatio() > 0 {
			sawTombstones = true
		}
		checkAgainstScratch(t, sess, m, copts, step)
		want, err := core.TupleSensitivities(q, m.database(t), "R1", copts)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range m.rows["R1"] {
			if g, w := fn(row), want(row); g != w {
				t.Fatalf("step %d: δ(R1:%v) from the evaluator taken before the stream: %d, scratch %d", step, row, g, w)
			}
		}
	}
	if !sawTombstones {
		t.Fatal("stream never planted a tombstone; the watermark was not exercised")
	}
	if n := reg.Counter("tsens_session_compactions_total", "").Value(); n == 0 {
		t.Fatal("watermark never compacted a table")
	}
	if sess.Rebuilds() != 0 {
		t.Fatalf("session rebuilt %d times, want compaction in place", sess.Rebuilds())
	}

	// Without the option the same stream accumulates tombstones and never
	// rebuilds.
	q2, db2, copts2 := buildCase(t, tc, rand.New(rand.NewSource(7)), 12, 4)
	manual, err := Open(q2, db2, Options{Options: copts2})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newMirror(db2)
	for len(m2.rows["R2"]) > 0 {
		up := Update{Rel: "R2", Row: m2.rows["R2"][0].Clone(), Insert: false}
		m2.apply(t, up)
		if err := manual.Delete(up.Rel, up.Row); err != nil {
			t.Fatal(err)
		}
	}
	if manual.Rebuilds() != 0 {
		t.Fatalf("unwatermarked session rebuilt %d times", manual.Rebuilds())
	}
	if manual.TombstoneRatio() == 0 {
		t.Fatal("unwatermarked session reports no tombstones after draining R2")
	}
}

// TestSessionTombstoneRatioDisconnected pins the watermark to the tables
// an update patches: deletes confined to the small component of a
// disconnected query compact only that component's tables, in place, and
// never rebuild the session — the failure mode is an O(|DB|) rebuild storm
// on the per-update path.
func TestSessionTombstoneRatioDisconnected(t *testing.T) {
	atoms := []query.Atom{
		{Relation: "A1", Vars: []string{"A", "B"}},
		{Relation: "A2", Vars: []string{"B", "C"}},
		{Relation: "B1", Vars: []string{"X", "Y"}},
		{Relation: "B2", Vars: []string{"Y", "Z"}},
	}
	q, err := query.New("disc", atoms, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(n int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = relation.Tuple{int64(i), int64(i)}
		}
		return out
	}
	db, err := relation.NewDatabase(
		relation.MustNew("A1", []string{"A", "B"}, rows(8)),
		relation.MustNew("A2", []string{"B", "C"}, rows(8)),
		relation.MustNew("B1", []string{"X", "Y"}, rows(400)),
		relation.MustNew("B2", []string{"Y", "Z"}, rows(400)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(q, db, Options{RebuildTombstoneRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(db)
	sawTombstones := false
	for step := 0; step < 6; step++ {
		up := Update{Rel: "A1", Row: m.rows["A1"][0].Clone(), Insert: false}
		m.apply(t, up)
		if err := sess.Delete(up.Rel, up.Row); err != nil {
			t.Fatal(err)
		}
		if sess.TombstoneRatio() > 0 {
			sawTombstones = true
		}
		checkAgainstScratch(t, sess, m, core.Options{}, step)
	}
	if !sawTombstones {
		t.Fatal("deletes planted no tombstones; the denominator was not exercised")
	}
	if n := sess.Rebuilds(); n != 0 {
		t.Fatalf("deletes in the small component rebuilt %d times: watermark denominator ignores the large component", n)
	}
}
