package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// JoinSorted computes the same natural join as Join using a sort-merge
// strategy — the implementation the paper describes for its top/botjoin
// computations ("sort both relations on the join column, join together,
// then groupby", Section 4.2). It is the independent reference the hash
// Join is checked against; results are identical to Join up to row order.
//
// Approximate operands (Default > 0) are not supported: their semantics
// require probing from the exact side, which the hash join provides.
func JoinSorted(a, b *Counted) (*Counted, error) {
	if a.Default > 0 || b.Default > 0 {
		return nil, fmt.Errorf("join(sort-merge): approximate operands unsupported")
	}
	shared := Intersect(a.Attrs, b.Attrs)
	if len(shared) == 0 {
		// Cross product: no ordering needed.
		out := &Counted{Attrs: Union(a.Attrs, b.Attrs)}
		crossProductInto(out, a, b)
		return out, nil
	}
	aIdx, err := a.attrIndexes(shared)
	if err != nil {
		return nil, err
	}
	bIdx, err := b.attrIndexes(shared)
	if err != nil {
		return nil, err
	}
	extra := Minus(b.Attrs, shared)
	extraIdx, err := b.attrIndexes(extra)
	if err != nil {
		return nil, err
	}

	aOrder := sortedOrder(a, aIdx)
	bOrder := sortedOrder(b, bIdx)
	out := &Counted{Attrs: Union(a.Attrs, b.Attrs)}

	i, j := 0, 0
	for i < len(aOrder) && j < len(bOrder) {
		ra := a.Row(aOrder[i])
		rb := b.Row(bOrder[j])
		switch compareAt(ra, aIdx, rb, bIdx) {
		case -1:
			i++
		case 1:
			j++
		default:
			// Find the equal-key runs on both sides.
			iEnd := i + 1
			for iEnd < len(aOrder) && compareAt(a.Row(aOrder[iEnd]), aIdx, ra, aIdx) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(bOrder) && compareAt(b.Row(bOrder[jEnd]), bIdx, rb, bIdx) == 0 {
				jEnd++
			}
			for x := i; x < iEnd; x++ {
				for y := j; y < jEnd; y++ {
					row := append(Tuple(nil), a.Row(aOrder[x])...)
					tb := b.Row(bOrder[y])
					for _, ix := range extraIdx {
						row = append(row, tb[ix])
					}
					appendRow(out, row, MulSat(a.Cnt[aOrder[x]], b.Cnt[bOrder[y]]))
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out, nil
}

// sortedOrder returns row indexes of c ordered by the key columns idxs.
func sortedOrder(c *Counted, idxs []int) []int {
	order := make([]int, c.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return compareAt(c.Row(order[x]), idxs, c.Row(order[y]), idxs) < 0
	})
	return order
}

// compareAt lexicographically compares two tuples on their respective key
// column lists (which must have equal length).
func compareAt(a Tuple, aIdx []int, b Tuple, bIdx []int) int {
	for k := range aIdx {
		va, vb := a[aIdx[k]], b[bIdx[k]]
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
	}
	return 0
}

// canonical renders a counted relation as a sorted multiset of
// (row, count) pairs after grouping, for order-insensitive comparison.
func canonical(t *testing.T, c *Counted) []string {
	t.Helper()
	g, err := c.GroupBy(c.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var buf []byte
	for i, row := range rowsOf(g) {
		buf = encodeTuple(buf[:0], row)
		out = append(out, string(buf)+"#"+string(encodeTuple(nil, Tuple{g.Cnt[i]})))
	}
	sort.Strings(out)
	return out
}

// TestJoinSortedMatchesHashJoin cross-checks the hash Join against the
// sort-merge reference, and Semijoin against a nested-loop scan, on random
// inputs sharing one column, two columns, or none.
func TestJoinSortedMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	schemas := []struct{ a, b []string }{
		{[]string{"A", "B"}, []string{"B", "C"}},           // one shared column
		{[]string{"A", "B", "C"}, []string{"C", "D", "B"}}, // two, in another order
		{[]string{"A", "B"}, []string{"C"}},                // none: cross product
	}
	mk := func(attrs []string) *Counted {
		c := &Counted{Attrs: attrs}
		for n := rng.Intn(12); c.Len() < n; {
			row := make(Tuple, len(attrs))
			for k := range row {
				row[k] = int64(rng.Intn(4))
			}
			appendRow(c, row, int64(rng.Intn(3))+1)
		}
		return c
	}
	for trial := 0; trial < 300; trial++ {
		sc := schemas[trial%len(schemas)]
		a, b := mk(sc.a), mk(sc.b)
		h, err := Join(a, b)
		if err != nil {
			t.Fatal(err)
		}
		s, err := JoinSorted(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ch, cs := canonical(t, h), canonical(t, s)
		if len(ch) != len(cs) {
			t.Fatalf("trial %d (%v ⋈ %v): %d vs %d distinct rows", trial, sc.a, sc.b, len(ch), len(cs))
		}
		for i := range ch {
			if ch[i] != cs[i] {
				t.Fatalf("trial %d (%v ⋈ %v): row %d differs", trial, sc.a, sc.b, i)
			}
		}

		semi, err := Semijoin(a, b)
		if err != nil {
			t.Fatal(err)
		}
		shared := Intersect(a.Attrs, b.Attrs)
		aIdx, _ := a.attrIndexes(shared)
		bIdx, _ := b.attrIndexes(shared)
		want := &Counted{Attrs: a.Attrs}
		for i, ta := range rowsOf(a) {
			for _, tb := range rowsOf(b) {
				match := true
				for k := range aIdx {
					match = match && ta[aIdx[k]] == tb[bIdx[k]]
				}
				if match {
					appendRow(want, ta, a.Cnt[i])
					break
				}
			}
		}
		if semi.Len() != want.Len() {
			t.Fatalf("trial %d (%v ⋉ %v): Semijoin kept %d rows, nested loop %d", trial, sc.a, sc.b, semi.Len(), want.Len())
		}
		for i := range rowsOf(want) {
			if !semi.Row(i).Equal(want.Row(i)) || semi.Cnt[i] != want.Cnt[i] {
				t.Fatalf("trial %d (%v ⋉ %v): row %d is %v=%d, nested loop %v=%d",
					trial, sc.a, sc.b, i, semi.Row(i), semi.Cnt[i], want.Row(i), want.Cnt[i])
			}
		}
	}
}

func TestJoinSortedCrossProduct(t *testing.T) {
	a := NewCounted([]string{"A"}, []Tuple{{1}, {2}}, []int64{2, 3})
	b := NewCounted([]string{"B"}, []Tuple{{7}}, []int64{4})
	j, err := JoinSorted(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.SumCnt() != 20 || j.Len() != 2 {
		t.Fatalf("cross product: rows=%d sum=%d", j.Len(), j.SumCnt())
	}
}

func TestJoinSortedMultiColumnKey(t *testing.T) {
	a := NewCounted([]string{"A", "B", "C"}, []Tuple{{1, 2, 9}, {1, 3, 9}}, []int64{1, 1})
	b := NewCounted([]string{"B", "A", "D"}, []Tuple{{2, 1, 5}, {3, 2, 5}}, []int64{7, 7})
	j, err := JoinSorted(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Only (A=1,B=2) matches: one output row with count 7.
	if j.Len() != 1 || j.Cnt[0] != 7 {
		t.Fatalf("multi-key join=%v %v", rowsOf(j), j.Cnt)
	}
}

func TestJoinSortedRejectsApproximate(t *testing.T) {
	a := NewCounted([]string{"A"}, []Tuple{{1}}, []int64{1})
	b := withDefault(NewCounted([]string{"A"}, []Tuple{{1}}, []int64{1}), 2)
	if _, err := JoinSorted(a, b); err == nil {
		t.Fatal("approximate operand accepted")
	}
	if _, err := JoinSorted(b, a); err == nil {
		t.Fatal("approximate left operand accepted")
	}
}

func TestCompareAt(t *testing.T) {
	a := Tuple{1, 5, 3}
	b := Tuple{5, 1, 3}
	if compareAt(a, []int{0}, b, []int{1}) != 0 {
		t.Fatal("cross-index equal compare failed")
	}
	if compareAt(a, []int{1}, b, []int{0}) != 0 {
		t.Fatal("5 vs 5 not equal")
	}
	if compareAt(a, []int{0, 2}, b, []int{1, 2}) != 0 {
		t.Fatal("multi-column equal compare failed")
	}
	if compareAt(a, []int{0}, b, []int{0}) != -1 {
		t.Fatal("1 < 5 failed")
	}
}

func BenchmarkJoinHashVsSortMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(attrs []string, n, dom int) *Counted {
		c := &Counted{Attrs: attrs}
		for i := 0; i < n; i++ {
			appendRow(c, Tuple{int64(rng.Intn(dom)), int64(rng.Intn(dom))}, 1)
		}
		return c
	}
	x := mk([]string{"A", "B"}, 20000, 5000)
	y := mk([]string{"B", "C"}, 20000, 5000)
	b.Run("Hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Join(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SortMerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := JoinSorted(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}
