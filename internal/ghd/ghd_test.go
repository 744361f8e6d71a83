package ghd

import (
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
)

func triangle() *query.Query {
	return query.MustNew("tri", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}, nil)
}

func fourCycle() *query.Query {
	return query.MustNew("cyc", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
		{Relation: "R4", Vars: []string{"D", "A"}},
	}, nil)
}

func TestFromBagsValidation(t *testing.T) {
	q := triangle()
	// The paper's decomposition for q△ (Figure 5b): {R1,R2}, {R3}.
	d, err := FromBags(q, [][]int{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 2 {
		t.Fatalf("Width=%d", d.Width())
	}
	// Missing atom.
	if _, err := FromBags(q, [][]int{{0, 1}}); err == nil {
		t.Fatal("partial partition accepted")
	}
	// Duplicate atom.
	if _, err := FromBags(q, [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Fatal("overlapping bags accepted")
	}
	// Empty bag.
	if _, err := FromBags(q, [][]int{{0, 1, 2}, {}}); err == nil {
		t.Fatal("empty bag accepted")
	}
	// Out of range.
	if _, err := FromBags(q, [][]int{{0, 1, 5}}); err == nil {
		t.Fatal("out-of-range atom accepted")
	}
	// Singleton bags on a cyclic query: bag hypergraph is cyclic.
	if _, err := FromBags(q, [][]int{{0}, {1}, {2}}); err == nil {
		t.Fatal("cyclic bag hypergraph accepted")
	}
}

func TestTrivial(t *testing.T) {
	acyc := query.MustNew("p", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}, nil)
	if _, err := Trivial(acyc); err != nil {
		t.Fatalf("trivial decomposition of acyclic query failed: %v", err)
	}
	if _, err := Trivial(triangle()); err == nil {
		t.Fatal("trivial decomposition of cyclic query accepted")
	}
}

func TestBagVarsAndAtoms(t *testing.T) {
	q := triangle()
	d := MustFromBags(q, [][]int{{0, 1}, {2}})
	vars := d.BagVars(q)
	if len(vars) != 2 || len(vars[0]) != 3 || len(vars[1]) != 2 {
		t.Fatalf("BagVars=%v", vars)
	}
	atoms := d.BagAtoms(q)
	if len(atoms) != 2 || atoms[0].Relation == atoms[1].Relation {
		t.Fatalf("BagAtoms=%v", atoms)
	}
}

func TestMaterializeTriangleBag(t *testing.T) {
	// R1={ (1,2) }, R2={ (2,3) } in bag; join should give (1,2,3).
	r1 := relation.NewCounted([]string{"A", "B"}, []relation.Tuple{{1, 2}}, []int64{2})
	r2 := relation.NewCounted([]string{"B", "C"}, []relation.Tuple{{2, 3}}, []int64{3})
	m, err := Materialize([]*relation.Counted{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	if m.SumCnt() != 6 || len(m.Attrs) != 3 {
		t.Fatalf("Materialize=%v cnt=%v", m.Attrs, m.Cnt)
	}
	if _, err := Materialize(nil); err == nil {
		t.Fatal("empty member list accepted")
	}
}

func TestMaterializeCrossProductFallback(t *testing.T) {
	a := relation.NewCounted([]string{"A"}, []relation.Tuple{{1}}, []int64{2})
	b := relation.NewCounted([]string{"B"}, []relation.Tuple{{2}}, []int64{5})
	m, err := Materialize([]*relation.Counted{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.SumCnt() != 10 {
		t.Fatalf("cross product cnt=%d", m.SumCnt())
	}
}

func TestSearchTriangle(t *testing.T) {
	d, err := Search(triangle(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 2 {
		t.Fatalf("triangle minimal width=%d, want 2", d.Width())
	}
}

func TestSearchFourCycle(t *testing.T) {
	d, err := Search(fourCycle(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's decomposition {R1,R2}, {R3,R4} has width 2; search must
	// match that optimum.
	if d.Width() != 2 {
		t.Fatalf("4-cycle minimal width=%d, want 2", d.Width())
	}
}

func TestSearchAcyclicWidthOne(t *testing.T) {
	acyc := query.MustNew("p", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}, nil)
	d, err := Search(acyc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 1 {
		t.Fatalf("acyclic minimal width=%d, want 1", d.Width())
	}
}

func TestSearchBagSizeGuard(t *testing.T) {
	if _, err := Search(triangle(), 1); err == nil {
		t.Fatal("width-1 decomposition of a triangle should not exist")
	}
}
