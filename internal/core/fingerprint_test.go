package core

import (
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
)

func fpTestDB(t *testing.T) *relation.Database {
	t.Helper()
	mk := func(name string, attrs []string, rows ...relation.Tuple) *relation.Relation {
		r, err := relation.New(name, attrs, rows)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	db, err := relation.NewDatabase(
		mk("R1", []string{"A", "B"}, relation.Tuple{1, 2}, relation.Tuple{2, 2}),
		mk("R2", []string{"B", "C"}, relation.Tuple{2, 3}),
		mk("R3", []string{"C", "D"}, relation.Tuple{3, 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// fpSolve returns the plan's fingerprints and the fingerprint of its root
// node, which covers the whole (connected) plan.
func fpSolve(t *testing.T, q *query.Query, db *relation.Database) (*PlanShape, string) {
	t.Helper()
	sol, err := NewSolver(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := sol.PlanShape()
	return ps, ps.Nodes[sol.Tree.Roots[0].Index]
}

func TestPlanShapeStability(t *testing.T) {
	db := fpTestDB(t)
	atoms := []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	q1 := query.MustNew("q1", atoms, nil)
	q2 := query.MustNew("differently-named", atoms, nil)
	a, aRoot := fpSolve(t, q1, db)
	b, bRoot := fpSolve(t, q2, db)
	if aRoot != bRoot {
		t.Fatal("identical atom lists fingerprint differently")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d fingerprint differs across identical queries", i)
		}
	}

	// A shared prefix of a longer query agrees on the common leaf subtree
	// but not on the root fingerprint.
	qp := query.MustNew("prefix", atoms[:2], nil)
	p, pRoot := fpSolve(t, qp, db)
	common := map[string]bool{}
	for _, fp := range p.Nodes {
		common[fp] = true
	}
	overlap := 0
	for _, fp := range a.Nodes {
		if common[fp] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("prefix query shares no subtree fingerprint with the full path")
	}
	if pRoot == aRoot {
		t.Fatal("different queries share a root fingerprint")
	}
}

func TestPlanShapeDiscriminates(t *testing.T) {
	db := fpTestDB(t)
	atoms := []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}
	_, base := fpSolve(t, query.MustNew("q", atoms, nil), db)

	// A selection predicate changes the member's base content, so its node
	// (and the root) must fingerprint apart.
	_, sel := fpSolve(t, query.MustNew("q", atoms,
		map[string][]query.Predicate{"R1": {{Var: "A", Op: query.Le, Value: 1}}}), db)
	if sel == base {
		t.Fatal("selection did not change the root fingerprint")
	}

	// A variable renaming yields isomorphic structure but different attrs;
	// the conservative encoding must keep them apart.
	ren := []query.Atom{
		{Relation: "R1", Vars: []string{"X", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}
	if _, got := fpSolve(t, query.MustNew("q", ren, nil), db); got == base {
		t.Fatal("renamed-variable plan collides with the original")
	}
}
