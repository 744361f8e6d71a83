package core

import (
	"strings"
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
)

// The top-k approximation is only sound where truncated joins act as
// lookups; the star-over-triangle query needs a cyclic join of three
// truncated botjoins, which must be rejected with a clear error rather
// than silently producing an unsound bound (see DESIGN.md).
func TestTopKRejectsCyclicMultiplicityJoin(t *testing.T) {
	edges := []relation.Tuple{{1, 2}, {2, 3}, {3, 1}, {2, 1}, {3, 2}, {1, 3}}
	tri := []relation.Tuple{{1, 2, 3}, {2, 3, 1}, {3, 1, 2}}
	db := relation.MustNewDatabase(
		relation.MustNew("RT", []string{"a", "b", "c"}, tri),
		relation.MustNew("R1", []string{"x", "y"}, edges),
		relation.MustNew("R2", []string{"x", "y"}, edges),
		relation.MustNew("R3", []string{"x", "y"}, edges),
	)
	q := query.MustNew("qstar", []query.Atom{
		{Relation: "RT", Vars: []string{"A", "B", "C"}},
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}, nil)
	// Exact mode works.
	if _, err := LocalSensitivity(q, db, Options{}); err != nil {
		t.Fatalf("exact mode failed: %v", err)
	}
	// k=1 forces truncation (each botjoin has 6 > 1 rows) and the root's
	// multiplicity table becomes a join of approximate pieces.
	_, err := LocalSensitivity(q, db, Options{TopK: 1})
	if err == nil {
		t.Fatal("unsound top-k configuration accepted")
	}
	if !strings.Contains(err.Error(), "approximation") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// On path queries every multiplicity-table group is a singleton truncated
// top/botjoin over exactly the target's connector, so top-k applies and
// keeps the upper-bound property at every k. (On Figure 1's shape the
// three botjoins form one connected group and top-k is rejected, same as
// the star query above.)
func TestTopKOnPathShape(t *testing.T) {
	q, db := figure3Query(), figure3DB()
	exact, err := LocalSensitivity(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 100} {
		approx, err := LocalSensitivity(q, db, Options{TopK: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if approx.LS < exact.LS {
			t.Fatalf("k=%d: bound %d below exact %d", k, approx.LS, exact.LS)
		}
	}
	if _, err := LocalSensitivity(figure1Query(), figure1DB(), Options{TopK: 1}); err == nil {
		t.Fatal("Figure 1 shape with top-k should be rejected (three approximate botjoins in one group)")
	}
}

func TestGroupPiecesPartitioning(t *testing.T) {
	a := &relation.Counted{Attrs: []string{"A", "B"}}
	b := &relation.Counted{Attrs: []string{"B", "C"}}
	c := &relation.Counted{Attrs: []string{"X"}}
	groups := GroupPieces([]*relation.Counted{a, b, c})
	if len(groups) != 2 {
		t.Fatalf("groups=%d, want 2", len(groups))
	}
	sizes := map[int]int{}
	for _, g := range groups {
		sizes[len(g)]++
	}
	if sizes[2] != 1 || sizes[1] != 1 {
		t.Fatalf("group sizes=%v", sizes)
	}
	if got := GroupPieces(nil); len(got) != 0 {
		t.Fatalf("empty input gave %d groups", len(got))
	}
}

func TestOrderPiecesApproxOnlyPair(t *testing.T) {
	a := relation.NewCounted([]string{"A"}, []relation.Tuple{{1}}, []int64{1})
	b := relation.NewCounted([]string{"A"}, []relation.Tuple{{1}}, []int64{1})
	a.Default, b.Default = 2, 2
	if _, _, err := orderPieces([]*relation.Counted{a, b}); err == nil {
		t.Fatal("two approximate pieces joined")
	}
	if _, err := GroupTable([]*relation.Counted{a, b}, []string{"A"}); err == nil {
		t.Fatal("two approximate pieces grouped")
	}
	// A single approximate piece passes through unchanged (and its Default
	// survives the identity group-by).
	ordered, attrs, err := orderPieces([]*relation.Counted{a})
	if err != nil || len(ordered) != 1 || ordered[0] != a || len(attrs) != 1 {
		t.Fatalf("singleton approx group: %v %v %v", ordered, attrs, err)
	}
	gt, err := GroupTable([]*relation.Counted{a}, []string{"A"})
	if err != nil || gt.Default != 2 || gt.Len() != 1 {
		t.Fatalf("singleton approx groupTable: %+v %v", gt, err)
	}
}
