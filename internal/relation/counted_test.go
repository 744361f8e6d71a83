package relation

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// rowsOf lists c's rows as views, for tests that compare or print them.
func rowsOf(c *Counted) []Tuple {
	out := make([]Tuple, c.Len())
	for i := range out {
		out[i] = c.Row(i)
	}
	return out
}

// appendRow appends a copy of t with count cnt to c, which ApplyDelta has
// not patched (its rows are not an index's keys).
func appendRow(c *Counted, t Tuple, cnt int64) {
	if c.rows == nil {
		c.rows = newArena(len(c.Attrs), 1)
	}
	copy(c.rows.alloc(), t)
	c.Cnt = append(c.Cnt, cnt)
}

// withDefault sets c's Default and returns c.
func withDefault(c *Counted, def int64) *Counted {
	c.Default = def
	return c
}

// TestRowAndLenAllocateNothing pins the accessors to zero allocations:
// Row returns a view of the arena, not a copy, on a built table and on a
// patched one alike.
func TestRowAndLenAllocateNothing(t *testing.T) {
	built := NewCounted([]string{"A", "B"}, []Tuple{{1, 2}, {3, 4}}, []int64{1, 1})
	patched := NewCounted([]string{"A", "B"}, []Tuple{{1, 2}}, []int64{1})
	if _, err := patched.ApplyDelta(NewCounted([]string{"A", "B"}, []Tuple{{5, 6}}, []int64{2})); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Counted{built, patched} {
		var sum int64
		allocs := testing.AllocsPerRun(100, func() {
			for i := range c.Len() {
				sum += c.Row(i)[1]
			}
		})
		if allocs != 0 {
			t.Errorf("Row and Len allocate %v times per scan, want 0", allocs)
		}
		if row := c.Row(1); cap(row) != 2 {
			t.Errorf("Row(1) has capacity %d, want it clipped to the width 2", cap(row))
		}
	}
}

func TestFromRelationDedup(t *testing.T) {
	r := MustNew("R", []string{"A", "B"}, []Tuple{{1, 1}, {1, 1}, {2, 1}})
	c := FromRelation(r)
	if c.Len() != 2 {
		t.Fatalf("got %d distinct rows", c.Len())
	}
	if c.SumCnt() != 3 {
		t.Fatalf("SumCnt=%d", c.SumCnt())
	}
	cnt, err := c.Lookup([]string{"A", "B"}, Tuple{1, 1})
	if err != nil || cnt != 2 {
		t.Fatalf("Lookup=(%d,%v)", cnt, err)
	}
}

func TestGroupBy(t *testing.T) {
	c := NewCounted([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}, {2, 1}}, []int64{2, 3, 4})
	g, err := c.GroupBy([]string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("groups=%d", g.Len())
	}
	cnt, err := g.Lookup([]string{"A"}, Tuple{1})
	if err != nil || cnt != 5 {
		t.Fatalf("group A=1 cnt=%d err=%v", cnt, err)
	}
	if _, err := c.GroupBy([]string{"Z"}); err == nil {
		t.Fatal("group by missing attribute accepted")
	}
}

func TestJoinNatural(t *testing.T) {
	a := NewCounted([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}}, []int64{2, 1})
	b := NewCounted([]string{"B", "C"}, []Tuple{{1, 7}, {1, 8}, {3, 9}}, []int64{5, 1, 1})
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// (1,1) joins (1,7) and (1,8): counts 10 and 2; (1,2) joins nothing.
	if j.SumCnt() != 12 {
		t.Fatalf("SumCnt=%d", j.SumCnt())
	}
	wantAttrs := []string{"A", "B", "C"}
	for i, x := range wantAttrs {
		if j.Attrs[i] != x {
			t.Fatalf("Attrs=%v", j.Attrs)
		}
	}
}

func TestJoinCrossProduct(t *testing.T) {
	a := NewCounted([]string{"A"}, []Tuple{{1}, {2}}, []int64{2, 3})
	b := NewCounted([]string{"B"}, []Tuple{{7}}, []int64{4})
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 || j.SumCnt() != 20 {
		t.Fatalf("cross product rows=%d sum=%d", j.Len(), j.SumCnt())
	}
}

func TestJoinIdentity(t *testing.T) {
	a := NewCounted([]string{"A"}, []Tuple{{1}}, []int64{5})
	j, err := Join(a, Constant(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.SumCnt() != 5 || j.Len() != 1 {
		t.Fatalf("identity join changed the relation: %v", j)
	}
}

func TestJoinWithDefault(t *testing.T) {
	a := NewCounted([]string{"A", "B"}, []Tuple{{1, 1}, {2, 2}}, []int64{1, 1})
	b := withDefault(NewCounted([]string{"B"}, []Tuple{{1}}, []int64{10}), 3)
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// (1,1) matches cnt 10; (2,2) misses and gets Default 3.
	if j.SumCnt() != 13 {
		t.Fatalf("SumCnt=%d", j.SumCnt())
	}
	// Default operand with attrs outside a must be rejected.
	c := withDefault(NewCounted([]string{"C"}, []Tuple{{1}}, []int64{1}), 2)
	if _, err := Join(a, c); err == nil {
		t.Fatal("approximate operand with new attrs accepted")
	}
	if _, err := Join(b, a); err == nil {
		t.Fatal("approximate left operand accepted")
	}
}

func TestSemijoin(t *testing.T) {
	a := NewCounted([]string{"A", "B"}, []Tuple{{1, 1}, {2, 2}}, []int64{1, 5})
	b := NewCounted([]string{"B", "C"}, []Tuple{{2, 9}}, []int64{1})
	s, err := Semijoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Cnt[0] != 5 {
		t.Fatalf("semijoin=%v %v", rowsOf(s), s.Cnt)
	}
}

func TestTopK(t *testing.T) {
	c := NewCounted([]string{"A"}, []Tuple{{1}, {2}, {3}, {4}}, []int64{10, 7, 5, 1})
	k := c.TopK(2)
	if k.Len() != 2 || k.Default != 7 {
		t.Fatalf("TopK rows=%d default=%d", k.Len(), k.Default)
	}
	// Unaffected when already small.
	if got := c.TopK(10); got != c {
		t.Fatal("TopK should return the receiver when len<=k")
	}
	if got := c.TopK(0); got != c {
		t.Fatal("TopK(0) should disable truncation")
	}
}

func TestJoinGroupFusion(t *testing.T) {
	a := NewCounted([]string{"A", "B"}, []Tuple{{1, 1}, {2, 1}}, []int64{1, 1})
	b := NewCounted([]string{"B", "C"}, []Tuple{{1, 5}, {1, 6}}, []int64{2, 3})
	g, err := JoinGroup(a, b, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("groups=%d", g.Len())
	}
	for i := range rowsOf(g) {
		if g.Cnt[i] != 5 {
			t.Fatalf("row %v cnt=%d want 5", g.Row(i), g.Cnt[i])
		}
	}
}

func TestSaturatingMath(t *testing.T) {
	if AddSat(math.MaxInt64, 1) != math.MaxInt64 {
		t.Fatal("AddSat overflow not saturated")
	}
	if MulSat(math.MaxInt64, 2) != math.MaxInt64 {
		t.Fatal("MulSat overflow not saturated")
	}
	if MulSat(0, math.MaxInt64) != 0 || MulSat(math.MaxInt64, 0) != 0 {
		t.Fatal("MulSat zero wrong")
	}
	if AddSat(2, 3) != 5 || MulSat(4, 5) != 20 {
		t.Fatal("basic arithmetic wrong")
	}
}

// Property: Join is commutative in total count for exact operands.
func TestJoinCommutativeCount(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a := &Counted{Attrs: []string{"A", "B"}}
		for _, v := range av {
			appendRow(a, Tuple{int64(v % 4), int64(v % 3)}, int64(v%5)+1)
		}
		b := &Counted{Attrs: []string{"B", "C"}}
		for _, v := range bv {
			appendRow(b, Tuple{int64(v % 3), int64(v % 7)}, int64(v%5)+1)
		}
		x, err1 := Join(a, b)
		y, err2 := Join(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return x.SumCnt() == y.SumCnt()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: GroupBy preserves the total count.
func TestGroupByPreservesTotal(t *testing.T) {
	f := func(vals []uint8) bool {
		c := &Counted{Attrs: []string{"A", "B"}}
		for _, v := range vals {
			appendRow(c, Tuple{int64(v % 5), int64(v % 2)}, int64(v%7)+1)
		}
		g, err := c.GroupBy([]string{"A"})
		if err != nil {
			return false
		}
		return g.SumCnt() == c.SumCnt()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopK yields an upper bound on every lookup.
func TestTopKUpperBound(t *testing.T) {
	f := func(vals []uint8, kRaw uint8) bool {
		c := &Counted{Attrs: []string{"A"}}
		seen := map[int64]int{}
		for _, v := range vals {
			key := int64(v % 9)
			if j, ok := seen[key]; ok {
				c.Cnt[j]++
				continue
			}
			seen[key] = c.Len()
			appendRow(c, Tuple{key}, 1)
		}
		k := int(kRaw%5) + 1
		approx := c.TopK(k)
		for i, row := range rowsOf(c) {
			got, err := approx.Lookup([]string{"A"}, row)
			if err != nil || got < c.Cnt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConstant(t *testing.T) {
	c := Constant(7)
	if c.Len() != 1 || c.SumCnt() != 7 || len(c.Attrs) != 0 {
		t.Fatalf("Constant=%v", c)
	}
}

func TestLookupErrors(t *testing.T) {
	c := NewCounted([]string{"A", "B"}, []Tuple{{1, 2}}, []int64{1})
	if _, err := c.Lookup([]string{"A"}, Tuple{1, 2}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := c.Lookup([]string{"A", "Z"}, Tuple{1, 2}); err == nil {
		t.Fatal("missing attribute accepted")
	}
	// Order-insensitive lookup.
	cnt, err := c.Lookup([]string{"B", "A"}, Tuple{2, 1})
	if err != nil || cnt != 1 {
		t.Fatalf("reordered lookup=(%d,%v)", cnt, err)
	}
}

func TestGroupByDeterministicIndependentOfRowOrder(t *testing.T) {
	build := func(perm []int) *Counted {
		base := []Tuple{{1, 1}, {1, 2}, {2, 2}}
		cnts := []int64{1, 2, 3}
		c := &Counted{Attrs: []string{"A", "B"}}
		for _, i := range perm {
			appendRow(c, base[i], cnts[i])
		}
		return c
	}
	g1, _ := build([]int{0, 1, 2}).GroupBy([]string{"A"})
	g2, _ := build([]int{2, 1, 0}).GroupBy([]string{"A"})
	type pair struct {
		k int64
		c int64
	}
	collect := func(g *Counted) []pair {
		var out []pair
		for i := range rowsOf(g) {
			out = append(out, pair{g.Row(i)[0], g.Cnt[i]})
		}
		sort.Slice(out, func(x, y int) bool { return out[x].k < out[y].k })
		return out
	}
	p1, p2 := collect(g1), collect(g2)
	if len(p1) != len(p2) {
		t.Fatal("different group counts")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("group mismatch %v vs %v", p1[i], p2[i])
		}
	}
}
