package query

import (
	"reflect"
	"testing"

	"tsens/internal/relation"
)

func atoms(specs ...[2]interface{}) []Atom {
	var out []Atom
	for _, s := range specs {
		out = append(out, Atom{Relation: s[0].(string), Vars: s[1].([]string)})
	}
	return out
}

// The running example of Figure 1: Q(A,B,C,D,E,F) :- R1(A,B,C), R2(A,B,D),
// R3(A,E), R4(B,F).
func figure1Atoms() []Atom {
	return []Atom{
		{Relation: "R1", Vars: []string{"A", "B", "C"}},
		{Relation: "R2", Vars: []string{"A", "B", "D"}},
		{Relation: "R3", Vars: []string{"A", "E"}},
		{Relation: "R4", Vars: []string{"B", "F"}},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("q", nil, nil); err == nil {
		t.Fatal("empty body accepted")
	}
	selfJoin := []Atom{{Relation: "R", Vars: []string{"A"}}, {Relation: "R", Vars: []string{"B"}}}
	if _, err := New("q", selfJoin, nil); err == nil {
		t.Fatal("self-join accepted")
	}
	repeated := []Atom{{Relation: "R", Vars: []string{"A", "A"}}}
	if _, err := New("q", repeated, nil); err == nil {
		t.Fatal("repeated variable in atom accepted")
	}
	bad := map[string][]Predicate{"Z": {{Var: "A", Op: Eq, Value: 1}}}
	if _, err := New("q", figure1Atoms(), bad); err == nil {
		t.Fatal("selection on unknown relation accepted")
	}
	bad2 := map[string][]Predicate{"R1": {{Var: "Z", Op: Eq, Value: 1}}}
	if _, err := New("q", figure1Atoms(), bad2); err == nil {
		t.Fatal("selection on unknown variable accepted")
	}
	q, err := New("q", figure1Atoms(), map[string][]Predicate{"R1": {{Var: "C", Op: Le, Value: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 4 {
		t.Fatal("atoms lost")
	}
}

func TestVarsAndOccurrences(t *testing.T) {
	q := MustNew("q", figure1Atoms(), nil)
	if got := q.Vars(); !reflect.DeepEqual(got, []string{"A", "B", "C", "D", "E", "F"}) {
		t.Fatalf("Vars=%v", got)
	}
	occ := q.VarOccurrences()
	if occ["A"] != 3 || occ["B"] != 3 || occ["C"] != 1 || occ["F"] != 1 {
		t.Fatalf("occurrences=%v", occ)
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		v, c int64
		want bool
	}{
		{Eq, 1, 1, true}, {Eq, 1, 2, false},
		{Ne, 1, 2, true}, {Ne, 2, 2, false},
		{Lt, 1, 2, true}, {Lt, 2, 2, false},
		{Le, 2, 2, true}, {Le, 3, 2, false},
		{Gt, 3, 2, true}, {Gt, 2, 2, false},
		{Ge, 2, 2, true}, {Ge, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.v, c.c); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.v, c.op, c.c, got, c.want)
		}
	}
}

func TestBind(t *testing.T) {
	db := relation.MustNewDatabase(
		relation.MustNew("R1", []string{"x", "y", "z"}, nil),
		relation.MustNew("R2", []string{"x", "y", "w"}, nil),
		relation.MustNew("R3", []string{"x", "e"}, nil),
		relation.MustNew("R4", []string{"y", "f"}, nil),
	)
	q := MustNew("q", figure1Atoms(), nil)
	rels, err := q.Bind(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 4 || rels[0].Name != "R1" {
		t.Fatalf("Bind=%v", rels)
	}
	// Arity mismatch.
	db2 := relation.MustNewDatabase(relation.MustNew("R1", []string{"x"}, nil))
	q2 := MustNew("q2", []Atom{{Relation: "R1", Vars: []string{"A", "B"}}}, nil)
	if _, err := q2.Bind(db2); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// Missing relation.
	q3 := MustNew("q3", []Atom{{Relation: "Nope", Vars: []string{"A"}}}, nil)
	if _, err := q3.Bind(db); err == nil {
		t.Fatal("missing relation accepted")
	}
}

func TestApplySelections(t *testing.T) {
	q := MustNew("q", figure1Atoms(), map[string][]Predicate{
		"R1": {{Var: "C", Op: Ge, Value: 10}, {Var: "A", Op: Eq, Value: 1}},
	})
	a, _ := q.Atom("R1")
	f := q.ApplySelections(a)
	if f == nil {
		t.Fatal("expected a filter")
	}
	if !f(relation.Tuple{1, 0, 10}) {
		t.Fatal("satisfying tuple rejected")
	}
	if f(relation.Tuple{1, 0, 9}) || f(relation.Tuple{2, 0, 10}) {
		t.Fatal("violating tuple accepted")
	}
	b, _ := q.Atom("R2")
	if q.ApplySelections(b) != nil {
		t.Fatal("unexpected filter for atom without predicates")
	}
}

func TestGYOFigure1(t *testing.T) {
	// Figure 2: R3(AE), R4(BF) and R2(ABD) are ears of R1(ABC).
	tree, err := BuildJoinTree(figure1Atoms())
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots=%d", len(tree.Roots))
	}
	// All non-root nodes must attach to an atom containing their shared vars.
	for _, n := range tree.Nodes {
		if n.Parent == nil {
			continue
		}
		conn := n.ConnectorVars()
		if len(conn) == 0 {
			t.Fatalf("node %s has empty connector", n.Atom)
		}
	}
	checkJoinTreeProperty(t, figure1Atoms(), tree)
	if !IsAcyclic(figure1Atoms()) {
		t.Fatal("Figure 1 query must be acyclic")
	}
}

func TestGYOCyclicTriangle(t *testing.T) {
	tri := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}
	if IsAcyclic(tri) {
		t.Fatal("triangle reported acyclic")
	}
	if _, err := BuildJoinTree(tri); err == nil {
		t.Fatal("BuildJoinTree accepted a cyclic query")
	}
}

func TestGYOFourCycle(t *testing.T) {
	cyc := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
		{Relation: "R4", Vars: []string{"D", "A"}},
	}
	if IsAcyclic(cyc) {
		t.Fatal("4-cycle reported acyclic")
	}
}

func TestGYOPath(t *testing.T) {
	path := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	tree, err := BuildJoinTree(path)
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxDegree() > 2 {
		t.Fatalf("path max degree=%d", tree.MaxDegree())
	}
	if !tree.IsDoublyAcyclic() {
		t.Fatal("path query must be doubly acyclic")
	}
}

func TestGYOStarAcyclicTriangleJoinNotDoubly(t *testing.T) {
	// The star query q* of the paper: R△(A,B,C) with R1(A,B), R2(B,C),
	// R3(C,A). Acyclic (every Ri is an ear of R△) but NOT doubly acyclic:
	// T^{R△} joins three edge tables forming a triangle (Section 5.2's
	// hard-node example).
	star := []Atom{
		{Relation: "Rt", Vars: []string{"A", "B", "C"}},
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}
	tree, err := BuildJoinTree(star)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots=%d", len(tree.Roots))
	}
	checkJoinTreeProperty(t, star, tree)
	if tree.IsDoublyAcyclic() {
		t.Fatal("star-over-triangle must not be doubly acyclic")
	}
}

// checkJoinTreeProperty verifies the defining property of a join tree
// (Section 2.2): for any two atoms sharing a variable, every node on the
// unique tree path between them contains that variable.
func checkJoinTreeProperty(t *testing.T, atoms []Atom, tree *Tree) {
	t.Helper()
	// Ancestor chains let us find tree paths without extra structure.
	pathUp := func(n *Node) []*Node {
		var out []*Node
		for x := n; x != nil; x = x.Parent {
			out = append(out, x)
		}
		return out
	}
	treePath := func(a, b *Node) []*Node {
		upA := pathUp(a)
		seen := map[*Node]int{}
		for i, x := range upA {
			seen[x] = i
		}
		var upB []*Node
		for x := b; x != nil; x = x.Parent {
			if i, ok := seen[x]; ok {
				return append(upA[:i+1], upB...)
			}
			upB = append(upB, x)
		}
		return nil // different components
	}
	hasV := func(n *Node, v string) bool {
		for _, x := range n.Atom.Vars {
			if x == v {
				return true
			}
		}
		return false
	}
	for i := range atoms {
		for j := i + 1; j < len(atoms); j++ {
			for _, v := range atoms[i].Vars {
				if !hasV(tree.Nodes[j], v) {
					continue
				}
				p := treePath(tree.Nodes[i], tree.Nodes[j])
				if p == nil {
					t.Fatalf("atoms %s and %s share %s but are in different components", atoms[i], atoms[j], v)
				}
				for _, n := range p {
					if !hasV(n, v) {
						t.Fatalf("join-tree property violated: %s missing from %s on path %s—%s",
							v, n.Atom, atoms[i], atoms[j])
					}
				}
			}
		}
	}
}

func TestDisconnectedForest(t *testing.T) {
	atoms := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B"}},
		{Relation: "R3", Vars: []string{"X", "Y"}},
	}
	tree, err := BuildJoinTree(atoms)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("roots=%d, want 2 components", len(tree.Roots))
	}
}

func TestTreeTraversals(t *testing.T) {
	tree, err := BuildJoinTree(figure1Atoms())
	if err != nil {
		t.Fatal(err)
	}
	post := tree.PostOrder()
	pre := tree.PreOrder()
	if len(post) != 4 || len(pre) != 4 {
		t.Fatal("traversal length wrong")
	}
	// Post-order visits children before parents.
	seen := map[*Node]bool{}
	for _, n := range post {
		for _, c := range n.Children {
			if !seen[c] {
				t.Fatal("post-order visited parent before child")
			}
		}
		seen[n] = true
	}
	// Pre-order visits parents before children.
	seen = map[*Node]bool{}
	for _, n := range pre {
		if n.Parent != nil && !seen[n.Parent] {
			t.Fatal("pre-order visited child before parent")
		}
		seen[n] = true
	}
}

func TestSiblings(t *testing.T) {
	tree, err := BuildJoinTree(figure1Atoms())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tree.Nodes {
		if n.Parent == nil {
			if n.Siblings() != nil {
				t.Fatal("root has siblings")
			}
			continue
		}
		for _, s := range n.Siblings() {
			if s == n {
				t.Fatal("node is its own sibling")
			}
			if s.Parent != n.Parent {
				t.Fatal("sibling with different parent")
			}
		}
	}
}

func TestPathOrder(t *testing.T) {
	path := []Atom{
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	order, ok := PathOrder(path)
	if !ok {
		t.Fatal("path not detected")
	}
	// Expected chain: R1 - R2 - R3 or its reverse starting at the
	// lower-index endpoint (R2 is index 0 but has degree 2; endpoints are
	// indexes 1 and 2; lowest endpoint is 1 = R1).
	want := []int{1, 0, 2}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order=%v want %v", order, want)
	}
}

func TestPathOrderRejectsStarAndCycle(t *testing.T) {
	star := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"A", "C"}},
		{Relation: "R3", Vars: []string{"A", "D"}},
	}
	if _, ok := PathOrder(star); ok {
		t.Fatal("star accepted as path")
	}
	cyc := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "A"}},
	}
	if _, ok := PathOrder(cyc); ok {
		t.Fatal("cycle accepted as path")
	}
	if _, ok := PathOrder(nil); ok {
		t.Fatal("empty accepted as path")
	}
	single := []Atom{{Relation: "R", Vars: []string{"A"}}}
	if order, ok := PathOrder(single); !ok || len(order) != 1 {
		t.Fatal("single atom must be a trivial path")
	}
	disconnected := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"X", "Y"}},
	}
	if _, ok := PathOrder(disconnected); ok {
		t.Fatal("disconnected accepted as path")
	}
}

func TestPathOrderSharedMultiVarConnector(t *testing.T) {
	// Adjacent relations sharing two attributes still form a path
	// (Section 4: multiple shared attributes act as one combined one).
	path := []Atom{
		{Relation: "R1", Vars: []string{"A", "B", "C"}},
		{Relation: "R2", Vars: []string{"B", "C", "D"}},
	}
	if _, ok := PathOrder(path); !ok {
		t.Fatal("two-atom path with composite connector rejected")
	}
}

func TestQueryString(t *testing.T) {
	q := MustNew("q", figure1Atoms(), map[string][]Predicate{"R1": {{Var: "C", Op: Lt, Value: 3}}})
	s := q.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// TestQueryStringDeterministic pins the rendering order of selections on
// several relations: sorted by relation name, the same text on every call.
func TestQueryStringDeterministic(t *testing.T) {
	atoms := []Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}
	q := MustNew("q", atoms, map[string][]Predicate{
		"R2": {{Var: "C", Op: Ge, Value: 1}},
		"R1": {{Var: "A", Op: Ge, Value: 1}},
	})
	const want = "q() :- R1(A,B), R2(B,C), σ[R1: A >= 1], σ[R2: C >= 1]"
	for i := 0; i < 50; i++ {
		if got := q.String(); got != want {
			t.Fatalf("render %d: %q, want %q", i, got, want)
		}
	}
}
