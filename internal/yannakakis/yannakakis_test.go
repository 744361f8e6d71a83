package yannakakis

import (
	"math/rand"
	"testing"

	"tsens/internal/ghd"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// figure1DB builds the database instance of Figure 1 of the paper.
func figure1DB() *relation.Database {
	// Values: a1=1,a2=2; b1=1,b2=2; c1=1; d1=1,d2=2; e1=1,e2=2; f1=1,f2=2.
	r1 := relation.MustNew("R1", []string{"A", "B", "C"}, []relation.Tuple{
		{1, 1, 1}, {1, 2, 1}, {2, 1, 1},
	})
	r2 := relation.MustNew("R2", []string{"A", "B", "D"}, []relation.Tuple{
		{1, 1, 1}, {2, 2, 2},
	})
	r3 := relation.MustNew("R3", []string{"A", "E"}, []relation.Tuple{
		{1, 1}, {2, 1}, {2, 2},
	})
	r4 := relation.MustNew("R4", []string{"B", "F"}, []relation.Tuple{
		{1, 1}, {2, 1}, {2, 2},
	})
	return relation.MustNewDatabase(r1, r2, r3, r4)
}

func figure1Query() *query.Query {
	return query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B", "C"}},
		{Relation: "R2", Vars: []string{"A", "B", "D"}},
		{Relation: "R3", Vars: []string{"A", "E"}},
		{Relation: "R4", Vars: []string{"B", "F"}},
	}, nil)
}

func TestCountFigure1(t *testing.T) {
	// Figure 1(b): the join result is the single tuple (a1,b1,c1,d1,e1,f1).
	got, err := Count(figure1Query(), figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("Count=%d, want 1", got)
	}
}

func TestBruteForceAgreesFigure1(t *testing.T) {
	bc, err := BruteCount(figure1Query(), figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	if bc != 1 {
		t.Fatalf("BruteCount=%d", bc)
	}
	out, err := BruteForce(figure1Query(), figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("BruteForce rows=%d", out.Len())
	}
}

func TestCountPathFigure3(t *testing.T) {
	// Figure 3's path query: R1(A,B), R2(B,C), R3(C,D), R4(D,E); the paper
	// shows Q has 4 output tuples... compute directly: R1 has 4 tuples (two
	// copies of (a2,b2)); bag semantics multiplies.
	r1 := relation.MustNew("R1", []string{"A", "B"}, []relation.Tuple{
		{1, 1}, {1, 2}, {2, 2}, {2, 2},
	})
	r2 := relation.MustNew("R2", []string{"B", "C"}, []relation.Tuple{
		{1, 1}, {1, 2}, {2, 1}, {2, 1},
	})
	r3 := relation.MustNew("R3", []string{"C", "D"}, []relation.Tuple{
		{1, 1}, {1, 1}, {2, 1}, {2, 2},
	})
	r4 := relation.MustNew("R4", []string{"D", "E"}, []relation.Tuple{
		{1, 1}, {1, 2}, {1, 3}, {2, 4},
	})
	db := relation.MustNewDatabase(r1, r2, r3, r4)
	q := query.MustNew("qpath", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
		{Relation: "R4", Vars: []string{"D", "E"}},
	}, nil)
	fast, err := Count(q, db)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := BruteCount(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Fatalf("Count=%d BruteCount=%d", fast, slow)
	}
}

func TestCountWithSelection(t *testing.T) {
	r1 := relation.MustNew("R1", []string{"A", "B"}, []relation.Tuple{{1, 1}, {2, 1}})
	r2 := relation.MustNew("R2", []string{"B", "C"}, []relation.Tuple{{1, 5}, {1, 6}})
	db := relation.MustNewDatabase(r1, r2)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}, map[string][]query.Predicate{
		"R1": {{Var: "A", Op: query.Eq, Value: 1}},
	})
	got, err := Count(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("Count=%d, want 2 (only A=1 joins)", got)
	}
}

func TestCountDisconnected(t *testing.T) {
	r1 := relation.MustNew("R1", []string{"A"}, []relation.Tuple{{1}, {2}})
	r2 := relation.MustNew("R2", []string{"B"}, []relation.Tuple{{7}, {8}, {9}})
	db := relation.MustNewDatabase(r1, r2)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A"}},
		{Relation: "R2", Vars: []string{"B"}},
	}, nil)
	got, err := Count(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("Count=%d, want 6 (cross product)", got)
	}
}

func TestCountEmptyRelation(t *testing.T) {
	r1 := relation.MustNew("R1", []string{"A", "B"}, nil)
	r2 := relation.MustNew("R2", []string{"B", "C"}, []relation.Tuple{{1, 2}})
	db := relation.MustNewDatabase(r1, r2)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}, nil)
	got, err := Count(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("Count=%d, want 0", got)
	}
}

func TestCountRejectsCyclic(t *testing.T) {
	r := func(name string) *relation.Relation {
		return relation.MustNew(name, []string{"x", "y"}, []relation.Tuple{{1, 1}})
	}
	db := relation.MustNewDatabase(r("R1"), r("R2"), r("R3"))
	tri := query.MustNew("tri", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}, nil)
	if _, err := Count(tri, db); err == nil {
		t.Fatal("cyclic query accepted by acyclic Count")
	}
}

func TestCountGHDTriangle(t *testing.T) {
	// A triangle graph on nodes 1,2,3 plus edge (1,3): edges stored
	// bidirected in three tables.
	edges := []relation.Tuple{{1, 2}, {2, 3}, {3, 1}, {2, 1}, {3, 2}, {1, 3}}
	db := relation.MustNewDatabase(
		relation.MustNew("R1", []string{"x", "y"}, edges),
		relation.MustNew("R2", []string{"x", "y"}, edges),
		relation.MustNew("R3", []string{"x", "y"}, edges),
	)
	tri := query.MustNew("tri", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}, nil)
	d := ghd.MustFromBags(tri, [][]int{{0, 1}, {2}})
	fast, err := CountGHD(tri, db, d)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := BruteCount(tri, db)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Fatalf("CountGHD=%d BruteCount=%d", fast, slow)
	}
	if fast != 6 {
		// Each of the 3! orientations of the triangle 1-2-3.
		t.Fatalf("triangle count=%d, want 6", fast)
	}
}

// Randomized agreement between the tree-based count and brute force on
// random path instances.
func TestCountRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(3)
		atoms := make([]query.Atom, m)
		rels := make([]*relation.Relation, m)
		for i := 0; i < m; i++ {
			va := string(rune('A' + i))
			vb := string(rune('A' + i + 1))
			atoms[i] = query.Atom{Relation: string(rune('R')) + va, Vars: []string{va, vb}}
			n := rng.Intn(6)
			rows := make([]relation.Tuple, n)
			for j := range rows {
				rows[j] = relation.Tuple{int64(rng.Intn(3)), int64(rng.Intn(3))}
			}
			rels[i] = relation.MustNew(atoms[i].Relation, []string{"x", "y"}, rows)
		}
		db := relation.MustNewDatabase(rels...)
		q := query.MustNew("q", atoms, nil)
		fast, err := Count(q, db)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := BruteCount(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Fatalf("trial %d: Count=%d BruteCount=%d", trial, fast, slow)
		}
	}
}

func TestBaseCountedErrors(t *testing.T) {
	db := relation.MustNewDatabase(relation.MustNew("R1", []string{"x"}, nil))
	q := query.MustNew("q", []query.Atom{{Relation: "R1", Vars: []string{"A"}}}, nil)
	if _, err := BaseCounted(q, db, query.Atom{Relation: "Z", Vars: []string{"A"}}); err == nil {
		t.Fatal("missing relation accepted")
	}
	if _, err := BaseCounted(q, db, query.Atom{Relation: "R1", Vars: []string{"A", "B"}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}
