package relation

import (
	"math/rand"
	"sort"
	"testing"
)

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
	for i, row := range g.Rows {
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
		for n := rng.Intn(12); len(c.Rows) < n; {
			row := make(Tuple, len(attrs))
			for k := range row {
				row[k] = int64(rng.Intn(4))
			}
			c.Rows = append(c.Rows, row)
			c.Cnt = append(c.Cnt, int64(rng.Intn(3))+1)
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
		for i, ta := range a.Rows {
			for _, tb := range b.Rows {
				match := true
				for k := range aIdx {
					match = match && ta[aIdx[k]] == tb[bIdx[k]]
				}
				if match {
					want.Rows = append(want.Rows, ta)
					want.Cnt = append(want.Cnt, a.Cnt[i])
					break
				}
			}
		}
		if len(semi.Rows) != len(want.Rows) {
			t.Fatalf("trial %d (%v ⋉ %v): Semijoin kept %d rows, nested loop %d", trial, sc.a, sc.b, len(semi.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if !semi.Rows[i].Equal(want.Rows[i]) || semi.Cnt[i] != want.Cnt[i] {
				t.Fatalf("trial %d (%v ⋉ %v): row %d is %v=%d, nested loop %v=%d",
					trial, sc.a, sc.b, i, semi.Rows[i], semi.Cnt[i], want.Rows[i], want.Cnt[i])
			}
		}
	}
}

func TestJoinSortedCrossProduct(t *testing.T) {
	a := &Counted{Attrs: []string{"A"}, Rows: []Tuple{{1}, {2}}, Cnt: []int64{2, 3}}
	b := &Counted{Attrs: []string{"B"}, Rows: []Tuple{{7}}, Cnt: []int64{4}}
	j, err := JoinSorted(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.SumCnt() != 20 || len(j.Rows) != 2 {
		t.Fatalf("cross product: rows=%d sum=%d", len(j.Rows), j.SumCnt())
	}
}

func TestJoinSortedMultiColumnKey(t *testing.T) {
	a := &Counted{Attrs: []string{"A", "B", "C"}, Rows: []Tuple{{1, 2, 9}, {1, 3, 9}}, Cnt: []int64{1, 1}}
	b := &Counted{Attrs: []string{"B", "A", "D"}, Rows: []Tuple{{2, 1, 5}, {3, 2, 5}}, Cnt: []int64{7, 7}}
	j, err := JoinSorted(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Only (A=1,B=2) matches: one output row with count 7.
	if len(j.Rows) != 1 || j.Cnt[0] != 7 {
		t.Fatalf("multi-key join=%v %v", j.Rows, j.Cnt)
	}
}

func TestJoinSortedRejectsApproximate(t *testing.T) {
	a := &Counted{Attrs: []string{"A"}, Rows: []Tuple{{1}}, Cnt: []int64{1}}
	b := &Counted{Attrs: []string{"A"}, Rows: []Tuple{{1}}, Cnt: []int64{1}, Default: 2}
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
			c.Rows = append(c.Rows, Tuple{int64(rng.Intn(dom)), int64(rng.Intn(dom))})
			c.Cnt = append(c.Cnt, 1)
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
