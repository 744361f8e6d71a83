package yannakakis

import (
	"math/rand"
	"sort"
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
)

func TestReduceRemovesDanglingTuples(t *testing.T) {
	// R1(A,B) has a dangling tuple (9,9) that joins nothing in R2.
	r1 := relation.MustNew("R1", []string{"a", "b"}, []relation.Tuple{{1, 1}, {9, 9}})
	r2 := relation.MustNew("R2", []string{"b", "c"}, []relation.Tuple{{1, 5}})
	db := relation.MustNewDatabase(r1, r2)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}, nil)
	reduced, err := Reduce(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if reduced[0].Len() != 1 {
		t.Fatalf("R1 reduced to %d rows, want 1", reduced[0].Len())
	}
	if !reduced[0].Row(0).Equal(relation.Tuple{1, 1}) {
		t.Fatalf("wrong surviving tuple: %v", reduced[0].Row(0))
	}
	// Inputs untouched.
	if len(db.Relation("R1").Rows) != 2 {
		t.Fatal("Reduce mutated the database")
	}
}

func TestReduceTopDownPass(t *testing.T) {
	// The child has a tuple that survives bottom-up (children first) but
	// must be removed top-down because the parent lost its partner.
	r1 := relation.MustNew("R1", []string{"a", "b"}, []relation.Tuple{{1, 1}})
	r2 := relation.MustNew("R2", []string{"b", "c"}, []relation.Tuple{{1, 5}, {2, 6}})
	db := relation.MustNewDatabase(r1, r2)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}, nil)
	reduced, err := Reduce(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range q.Atoms {
		if a.Relation == "R2" && reduced[i].Len() != 1 {
			t.Fatalf("R2 reduced to %d rows, want 1", reduced[i].Len())
		}
	}
}

// canonicalRows renders a counted relation as a sorted list of projected
// rows for order- and column-order-insensitive comparison over shared
// variables.
func canonicalRows(t *testing.T, c *relation.Counted, vars []string) []string {
	t.Helper()
	g, err := c.GroupBy(vars)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := range g.Len() {
		row := g.Row(i)
		s := ""
		for _, v := range row {
			s += string(rune('0'+v)) + ","
		}
		s += "#"
		for j := int64(0); j < g.Cnt[i]; j++ {
			s += "|"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestOutputMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		// Random star query: R0(A,B,C) with satellites.
		atoms := []query.Atom{
			{Relation: "R0", Vars: []string{"A", "B", "C"}},
			{Relation: "R1", Vars: []string{"A", "X"}},
			{Relation: "R2", Vars: []string{"B", "Y"}},
		}
		mk := func(name string, arity, n int) *relation.Relation {
			attrs := make([]string, arity)
			for i := range attrs {
				attrs[i] = string(rune('p' + i))
			}
			rows := make([]relation.Tuple, n)
			for i := range rows {
				tpl := make(relation.Tuple, arity)
				for j := range tpl {
					tpl[j] = int64(rng.Intn(3))
				}
				rows[i] = tpl
			}
			return relation.MustNew(name, attrs, rows)
		}
		db := relation.MustNewDatabase(mk("R0", 3, rng.Intn(6)), mk("R1", 2, rng.Intn(5)), mk("R2", 2, rng.Intn(5)))
		q := query.MustNew("q", atoms, nil)
		fast, err := Output(q, db)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := BruteForce(q, db)
		if err != nil {
			t.Fatal(err)
		}
		vars := q.Vars()
		a := canonicalRows(t, fast, vars)
		b := canonicalRows(t, slow, vars)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d distinct output rows", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: output row %d differs:\n%s\n%s", trial, i, a[i], b[i])
			}
		}
	}
}

func TestOutputFigure1(t *testing.T) {
	out, err := Output(figure1Query(), figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	if out.SumCnt() != 1 {
		t.Fatalf("output count=%d, want 1", out.SumCnt())
	}
	if len(out.Attrs) != 6 {
		t.Fatalf("output attrs=%v, want all six variables", out.Attrs)
	}
}

func TestOutputDisconnected(t *testing.T) {
	r1 := relation.MustNew("R1", []string{"a"}, []relation.Tuple{{1}, {2}})
	r2 := relation.MustNew("R2", []string{"b"}, []relation.Tuple{{7}})
	db := relation.MustNewDatabase(r1, r2)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A"}},
		{Relation: "R2", Vars: []string{"B"}},
	}, nil)
	out, err := Output(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.SumCnt() != 2 || len(out.Attrs) != 2 {
		t.Fatalf("cross product output: %v cnt=%d", out.Attrs, out.SumCnt())
	}
}
