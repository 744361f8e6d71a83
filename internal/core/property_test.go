package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tsens/internal/ghd"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// randRelation builds a random relation with values in a small domain so
// joins are dense enough to be interesting.
func randRelation(rng *rand.Rand, name string, attrs []string, maxRows, domain int) *relation.Relation {
	n := rng.Intn(maxRows + 1)
	rows := make([]relation.Tuple, n)
	for i := range rows {
		t := make(relation.Tuple, len(attrs))
		for j := range t {
			t[j] = int64(rng.Intn(domain))
		}
		rows[i] = t
	}
	return relation.MustNew(name, attrs, rows)
}

// checkAgainstNaive verifies LS, per-relation maxima, and the achieved
// sensitivity of the reported tuples against the brute-force oracle.
func checkAgainstNaive(t *testing.T, trial int, q *query.Query, db *relation.Database, opts Options) {
	t.Helper()
	res, err := LocalSensitivity(q, db, opts)
	if err != nil {
		t.Fatalf("trial %d: %v\nquery: %s", trial, err, q)
	}
	naive, err := NaiveLocalSensitivity(q, db, NaiveOptions{})
	if err != nil {
		t.Fatalf("trial %d: naive: %v", trial, err)
	}
	if res.LS != naive.LS {
		t.Fatalf("trial %d: TSens LS=%d naive LS=%d\nquery: %s\n%s",
			trial, res.LS, naive.LS, q, dumpDB(db))
	}
	if res.Count != naive.Count {
		t.Fatalf("trial %d: TSens Count=%d naive Count=%d", trial, res.Count, naive.Count)
	}
	for rel, tr := range res.PerRelation {
		if nt := naive.PerRelation[rel]; nt != nil && tr.Sensitivity != nt.Sensitivity {
			t.Fatalf("trial %d: relation %s TSens=%d naive=%d\nquery: %s\n%s",
				trial, rel, tr.Sensitivity, nt.Sensitivity, q, dumpDB(db))
		}
		// Inserting the reported tuple must change the count by exactly its
		// sensitivity.
		if tr.Sensitivity > 0 {
			mod := db.Clone()
			r := mod.Relation(rel)
			r.Rows = append(r.Rows, tr.Values.Clone())
			cnt, err := naiveCount(q, mod)
			if err != nil {
				t.Fatal(err)
			}
			if cnt-naive.Count != tr.Sensitivity {
				t.Fatalf("trial %d: %s tuple %v achieves %d, reported %d",
					trial, rel, tr.Values, cnt-naive.Count, tr.Sensitivity)
			}
		}
	}
}

func dumpDB(db *relation.Database) string {
	s := ""
	for _, name := range db.Names() {
		r := db.Relation(name)
		s += fmt.Sprintf("%s%v: %v\n", name, r.Attrs, r.Rows)
	}
	return s
}

// Random path queries of length 2–4.
func TestPropertyPathQueriesAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(3)
		var atomsList []query.Atom
		var rels []*relation.Relation
		for i := 0; i < m; i++ {
			va := fmt.Sprintf("V%d", i)
			vb := fmt.Sprintf("V%d", i+1)
			name := fmt.Sprintf("R%d", i)
			atomsList = append(atomsList, query.Atom{Relation: name, Vars: []string{va, vb}})
			rels = append(rels, randRelation(rng, name, []string{"x", "y"}, 5, 3))
		}
		db := relation.MustNewDatabase(rels...)
		q := query.MustNew("q", atomsList, nil)
		checkAgainstNaive(t, trial, q, db, Options{})

		// The path specialization must agree exactly with the tree
		// algorithm.
		pres, err := PathLocalSensitivity(q, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := LocalSensitivity(q, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pres.LS != res.LS || pres.Count != res.Count {
			t.Fatalf("trial %d: path LS=%d/%d acyclic LS=%d/%d",
				trial, pres.LS, pres.Count, res.LS, res.Count)
		}
		for rel := range res.PerRelation {
			if pres.PerRelation[rel].Sensitivity != res.PerRelation[rel].Sensitivity {
				t.Fatalf("trial %d: %s path=%d acyclic=%d", trial, rel,
					pres.PerRelation[rel].Sensitivity, res.PerRelation[rel].Sensitivity)
			}
		}
	}
}

// Random star queries R0(A,B,C) ⋈ R1(A,X) ⋈ R2(B,Y) ⋈ R3(C,Z): degree-3
// join trees exercising the multi-children multiplicity tables.
func TestPropertyStarQueriesAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		atomsList := []query.Atom{
			{Relation: "R0", Vars: []string{"A", "B", "C"}},
			{Relation: "R1", Vars: []string{"A", "X"}},
			{Relation: "R2", Vars: []string{"B", "Y"}},
			{Relation: "R3", Vars: []string{"C", "Z"}},
		}
		db := relation.MustNewDatabase(
			randRelation(rng, "R0", []string{"a", "b", "c"}, 5, 2),
			randRelation(rng, "R1", []string{"a", "x"}, 4, 2),
			randRelation(rng, "R2", []string{"b", "y"}, 4, 2),
			randRelation(rng, "R3", []string{"c", "z"}, 4, 2),
		)
		q := query.MustNew("qstar", atomsList, nil)
		checkAgainstNaive(t, trial, q, db, Options{})
	}
}

// Random Figure-1-shaped queries (two wide relations sharing two variables
// plus two satellites).
func TestPropertyFigure1ShapeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		atomsList := []query.Atom{
			{Relation: "R1", Vars: []string{"A", "B", "C"}},
			{Relation: "R2", Vars: []string{"A", "B", "D"}},
			{Relation: "R3", Vars: []string{"A", "E"}},
			{Relation: "R4", Vars: []string{"B", "F"}},
		}
		db := relation.MustNewDatabase(
			randRelation(rng, "R1", []string{"a", "b", "c"}, 4, 2),
			randRelation(rng, "R2", []string{"a", "b", "d"}, 4, 2),
			randRelation(rng, "R3", []string{"a", "e"}, 4, 2),
			randRelation(rng, "R4", []string{"b", "f"}, 4, 2),
		)
		q := query.MustNew("qfig1", atomsList, nil)
		checkAgainstNaive(t, trial, q, db, Options{})
	}
}

// Random triangle queries through the GHD {R1,R2},{R3}.
func TestPropertyTriangleGHDAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		atomsList := []query.Atom{
			{Relation: "R1", Vars: []string{"A", "B"}},
			{Relation: "R2", Vars: []string{"B", "C"}},
			{Relation: "R3", Vars: []string{"C", "A"}},
		}
		db := relation.MustNewDatabase(
			randRelation(rng, "R1", []string{"x", "y"}, 5, 3),
			randRelation(rng, "R2", []string{"x", "y"}, 5, 3),
			randRelation(rng, "R3", []string{"x", "y"}, 5, 3),
		)
		q := query.MustNew("qtri", atomsList, nil)
		d := ghd.MustFromBags(q, [][]int{{0, 1}, {2}})
		checkAgainstNaive(t, trial, q, db, Options{Decomposition: d})
	}
}

// Random 4-cycle queries through the GHD {R1,R2},{R3,R4} (the paper's q◦).
func TestPropertyFourCycleGHDAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		atomsList := []query.Atom{
			{Relation: "R1", Vars: []string{"A", "B"}},
			{Relation: "R2", Vars: []string{"B", "C"}},
			{Relation: "R3", Vars: []string{"C", "D"}},
			{Relation: "R4", Vars: []string{"D", "A"}},
		}
		db := relation.MustNewDatabase(
			randRelation(rng, "R1", []string{"x", "y"}, 4, 2),
			randRelation(rng, "R2", []string{"x", "y"}, 4, 2),
			randRelation(rng, "R3", []string{"x", "y"}, 4, 2),
			randRelation(rng, "R4", []string{"x", "y"}, 4, 2),
		)
		q := query.MustNew("qcyc", atomsList, nil)
		d := ghd.MustFromBags(q, [][]int{{0, 1}, {2, 3}})
		checkAgainstNaive(t, trial, q, db, Options{Decomposition: d})
	}
}

// With selections, TSens must still match the oracle (the oracle evaluates
// through the same selection-aware counting). Predicates fall on a join
// variable (R1.C) and on the atom-private variables R0.A and R2.D, whose
// values may lie outside the active domain [0, 3): the oracle must then
// insert a witness that satisfies them.
func TestPropertySelectionsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pred := func(v string) query.Predicate {
		return query.Predicate{Var: v, Op: query.Op(rng.Intn(6)), Value: int64(rng.Intn(5))}
	}
	for trial := 0; trial < 60; trial++ {
		atomsList := []query.Atom{
			{Relation: "R0", Vars: []string{"A", "B"}},
			{Relation: "R1", Vars: []string{"B", "C"}},
			{Relation: "R2", Vars: []string{"C", "D"}},
		}
		sel := map[string][]query.Predicate{
			"R0": {pred("A")},
			"R1": {pred("C")},
			"R2": {pred("D")},
		}
		db := relation.MustNewDatabase(
			randRelation(rng, "R0", []string{"x", "y"}, 5, 3),
			randRelation(rng, "R1", []string{"x", "y"}, 5, 3),
			randRelation(rng, "R2", []string{"x", "y"}, 5, 3),
		)
		q := query.MustNew("qsel", atomsList, sel)
		checkAgainstNaive(t, trial, q, db, Options{})
	}
}

// TupleSensitivities must agree with per-tuple re-evaluation.
func TestPropertyTupleSensitivitiesAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		atomsList := []query.Atom{
			{Relation: "R0", Vars: []string{"A", "B"}},
			{Relation: "R1", Vars: []string{"B", "C"}},
			{Relation: "R2", Vars: []string{"C", "D"}},
		}
		db := relation.MustNewDatabase(
			randRelation(rng, "R0", []string{"x", "y"}, 5, 3),
			randRelation(rng, "R1", []string{"x", "y"}, 5, 3),
			randRelation(rng, "R2", []string{"x", "y"}, 5, 3),
		)
		q := query.MustNew("qts", atomsList, nil)
		fn, err := TupleSensitivities(q, db, "R1", Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := naiveCount(q, db)
		if err != nil {
			t.Fatal(err)
		}
		// Check all existing tuples plus a few random candidates.
		check := func(tp relation.Tuple) {
			mod := db.Clone()
			r := mod.Relation("R1")
			r.Rows = append(r.Rows, tp.Clone())
			cnt, err := naiveCount(q, mod)
			if err != nil {
				t.Fatal(err)
			}
			if got := fn(tp); got != cnt-base {
				t.Fatalf("trial %d: δ(%v)=%d, re-eval says %d", trial, tp, got, cnt-base)
			}
		}
		for _, row := range db.Relation("R1").Rows {
			check(row)
		}
		for i := 0; i < 5; i++ {
			check(relation.Tuple{int64(rng.Intn(4)), int64(rng.Intn(4))})
		}
	}
}

// The top-k approximation must upper-bound the exact sensitivity and
// converge to it for large k.
func TestPropertyTopKUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		m := 3
		var atomsList []query.Atom
		var rels []*relation.Relation
		for i := 0; i < m; i++ {
			va := fmt.Sprintf("V%d", i)
			vb := fmt.Sprintf("V%d", i+1)
			name := fmt.Sprintf("R%d", i)
			atomsList = append(atomsList, query.Atom{Relation: name, Vars: []string{va, vb}})
			rels = append(rels, randRelation(rng, name, []string{"x", "y"}, 8, 4))
		}
		db := relation.MustNewDatabase(rels...)
		q := query.MustNew("q", atomsList, nil)
		exact, err := LocalSensitivity(q, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := LocalSensitivity(q, db, Options{TopK: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		if !approx.Approximate {
			t.Fatal("Approximate flag not set")
		}
		if approx.LS < exact.LS {
			t.Fatalf("trial %d: approx LS=%d < exact LS=%d", trial, approx.LS, exact.LS)
		}
		big, err := LocalSensitivity(q, db, Options{TopK: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if big.LS != exact.LS {
			t.Fatalf("trial %d: TopK=1000 LS=%d ≠ exact %d", trial, big.LS, exact.LS)
		}
	}
}
