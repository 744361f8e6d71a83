package relation

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// canon renders a Counted as a canonical multiset string: rows (with counts)
// sorted, plus attrs and Default. Two relations are operator-equivalent iff
// their canon forms match.
func canon(c *Counted) string {
	lines := make([]string, c.Len())
	for i, t := range rowsOf(c) {
		lines[i] = fmt.Sprintf("%v=%d", []int64(t), c.Cnt[i])
	}
	sort.Strings(lines)
	return fmt.Sprintf("attrs=%v default=%d rows=%v", c.Attrs, c.Default, lines)
}

// randCounted builds a random Counted over the given attrs with values drawn
// from [0, domain) and counts from [1, 5].
func randCounted(rng *rand.Rand, attrs []string, rows, domain int) *Counted {
	c := &Counted{Attrs: append([]string(nil), attrs...)}
	for i := 0; i < rows; i++ {
		t := make(Tuple, len(attrs))
		for j := range t {
			t[j] = int64(rng.Intn(domain))
		}
		appendRow(c, t, int64(rng.Intn(5))+1)
	}
	return c
}

// TestJoinGroupFusedEqualsUnfused cross-checks the fused JoinGroup kernel
// against the composition of Join and GroupBy on randomized inputs,
// covering single- and multi-column shared keys, cross products, grouping
// onto 0..all columns, and approximate (Default > 0) right operands.
func TestJoinGroupFusedEqualsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schemas := []struct {
		a, b []string
	}{
		{[]string{"A", "B"}, []string{"B", "C"}},           // single shared col
		{[]string{"A", "B", "C"}, []string{"B", "C", "D"}}, // two shared cols
		{[]string{"A"}, []string{"B"}},                     // cross product
		{[]string{"A", "B", "C"}, []string{"C"}},           // b ⊆ a
	}
	for trial := 0; trial < 300; trial++ {
		sc := schemas[trial%len(schemas)]
		a := randCounted(rng, sc.a, rng.Intn(40), 4)
		b := randCounted(rng, sc.b, rng.Intn(40), 4)
		if trial%3 == 1 && ContainsAll(sc.a, sc.b) {
			b.Default = int64(rng.Intn(3) + 1) // approximate operand
			if rng.Intn(2) == 0 {
				b.rows, b.Cnt = nil, nil // force the all-miss Default path
			}
		}
		union := Union(a.Attrs, b.Attrs)
		// Group onto a random subset of the join schema, in random order.
		perm := rng.Perm(len(union))
		attrs := make([]string, 0, len(union))
		for _, p := range perm[:rng.Intn(len(union)+1)] {
			attrs = append(attrs, union[p])
		}

		fused, errF := JoinGroup(a, b, attrs)
		j, errJ := Join(a, b)
		var unfused *Counted
		errU := errJ
		if errJ == nil {
			unfused, errU = j.GroupBy(attrs)
		}
		if (errF == nil) != (errU == nil) {
			t.Fatalf("trial %d: fused err=%v, unfused err=%v", trial, errF, errU)
		}
		if errF != nil {
			continue
		}
		if got, want := canon(fused), canon(unfused); got != want {
			t.Fatalf("trial %d (a=%v b=%v default=%d group=%v):\nfused   %s\nunfused %s",
				trial, sc.a, sc.b, b.Default, attrs, got, want)
		}
	}
}

// TestJoinGroupErrors checks the fused kernel rejects exactly what the
// composition rejects.
func TestJoinGroupErrors(t *testing.T) {
	a := NewCounted([]string{"A", "B"}, []Tuple{{1, 2}}, []int64{1})
	b := NewCounted([]string{"B", "C"}, []Tuple{{2, 3}}, []int64{1})
	if _, err := JoinGroup(a, b, []string{"Z"}); err == nil {
		t.Fatal("missing group attribute accepted")
	}
	approx := withDefault(NewCounted([]string{"C"}, []Tuple{{1}}, []int64{1}), 2)
	if _, err := JoinGroup(a, approx, []string{"A"}); err == nil {
		t.Fatal("approximate operand with new attrs accepted")
	}
	aDef := withDefault(NewCounted([]string{"A"}, []Tuple{{1}}, []int64{1}), 1)
	if _, err := JoinGroup(aDef, b, []string{"A"}); err == nil {
		t.Fatal("approximate left operand accepted")
	}
}

// TestJoinGroupChainEqualsJoinsThenGroup checks the chain helper against
// explicit joins, on both chain shapes: operands that extend the schema
// (general fused path) and operands contained in a's attributes (the
// single-pass lookup kernel used by the botjoin/topjoin edges), with and
// without approximate operands.
func TestJoinGroupChainEqualsJoinsThenGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(trial int, a *Counted, bs []*Counted, attrs []string) {
		t.Helper()
		chained, errC := JoinGroupChain(a, bs, attrs)
		acc := a
		var errW error
		for _, b := range bs {
			if acc, errW = Join(acc, b); errW != nil {
				break
			}
		}
		var want *Counted
		if errW == nil {
			want, errW = acc.GroupBy(attrs)
		}
		if (errC == nil) != (errW == nil) {
			t.Fatalf("trial %d: chain err=%v, unfused err=%v", trial, errC, errW)
		}
		if errC != nil {
			return
		}
		if canon(chained) != canon(want) {
			t.Fatalf("trial %d:\nchained %s\nwant    %s", trial, canon(chained), canon(want))
		}
	}
	for trial := 0; trial < 100; trial++ {
		// Schema-extending chain: b adds C, c adds D.
		a := randCounted(rng, []string{"A", "B"}, rng.Intn(20), 3)
		b := randCounted(rng, []string{"B", "C"}, rng.Intn(20), 3)
		c := randCounted(rng, []string{"C", "D"}, rng.Intn(20), 3)
		check(trial, a, []*Counted{b, c}, []string{"A"})

		// Contained chain (lookup kernel): operands over subsets of a.
		wide := randCounted(rng, []string{"A", "B", "C"}, rng.Intn(30), 3)
		s1 := randCounted(rng, []string{"B"}, rng.Intn(6), 3)
		s2 := randCounted(rng, []string{"C", "A"}, rng.Intn(10), 3)
		if trial%2 == 1 {
			s1.Default = int64(rng.Intn(3) + 1)
			if rng.Intn(2) == 0 {
				s2.Default = int64(rng.Intn(3) + 1)
			}
		}
		groups := [][]string{{"A"}, {"A", "B"}, {}, {"C", "B", "A"}}
		check(trial, wide, []*Counted{s1, s2}, groups[trial%len(groups)])
	}
}

// TestProbeMatchesScan checks the lazy hash index against a linear scan.
func TestProbeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randCounted(rng, []string{"A", "B"}, 100, 6)
	for trial := 0; trial < 200; trial++ {
		key := Tuple{int64(rng.Intn(8)), int64(rng.Intn(8))}
		wantCnt, wantOK := int64(0), false
		for i, row := range rowsOf(c) {
			if row.Equal(key) {
				wantCnt, wantOK = c.Cnt[i], true
				break
			}
		}
		gotCnt, gotOK := c.Probe(key)
		if gotCnt != wantCnt || gotOK != wantOK {
			t.Fatalf("Probe(%v) = (%d,%v), scan = (%d,%v)", key, gotCnt, gotOK, wantCnt, wantOK)
		}
	}
	// Index must rebuild when rows are appended after the first probe.
	appendRow(c, Tuple{100, 100}, 9)
	if cnt, ok := c.Probe(Tuple{100, 100}); !ok || cnt != 9 {
		t.Fatalf("stale index: Probe after append = (%d,%v)", cnt, ok)
	}
}

// TestIntTable exercises the open-addressing table across growth.
func TestIntTable(t *testing.T) {
	tbl := newIntTable(3, 0)
	n := 10000
	for i := 0; i < n; i++ {
		key := []int64{int64(i % 100), int64(i % 77), int64(i)}
		id, added := tbl.insert(key)
		if !added || int(id) != i {
			t.Fatalf("insert %d: id=%d added=%v", i, id, added)
		}
	}
	for i := 0; i < n; i++ {
		key := []int64{int64(i % 100), int64(i % 77), int64(i)}
		if id, added := tbl.insert(key); added || int(id) != i {
			t.Fatalf("re-insert %d: id=%d added=%v", i, id, added)
		}
		if id := tbl.find(key); int(id) != i {
			t.Fatalf("find %d: id=%d", i, id)
		}
	}
	if tbl.find([]int64{-1, -1, -1}) != -1 {
		t.Fatal("found absent key")
	}
}

// TestIntTableAgainstMap is a differential test of intTable against a Go
// map for key widths 1–4: random, negative and extreme int64 keys with
// duplicates, inserted through at least 12 slot-array doublings and across
// several key-arena chunks. It checks every id (those at the chunk
// boundaries explicitly), misses, and that the arena's spans list the keys
// in insertion order.
func TestIntTableAgainstMap(t *testing.T) {
	const distinct = 30000 // > 3/4 of 8<<12 slots: at least 12 doublings
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for width := 1; width <= 4; width++ {
		rng := rand.New(rand.NewSource(int64(width)))
		randKey := func() [4]int64 {
			var k [4]int64
			for c := 0; c < width; c++ {
				switch rng.Intn(4) {
				case 0:
					k[c] = extremes[rng.Intn(len(extremes))]
				case 1:
					k[c] = -rng.Int63n(64)
				case 2:
					k[c] = rng.Int63n(64)
				default:
					k[c] = int64(rng.Uint64())
				}
			}
			return k
		}
		tbl := newIntTable(width, 0)
		ids := map[[4]int64]int32{}
		var order [][4]int64
		for len(order) < distinct {
			k := randKey()
			if len(order) > 0 && rng.Intn(4) == 0 {
				k = order[rng.Intn(len(order))] // duplicate
			}
			id, added := tbl.insert(k[:width])
			want, seen := ids[k]
			if !seen {
				want = int32(len(order))
				ids[k] = want
				order = append(order, k)
			}
			if id != want || added == seen {
				t.Fatalf("width %d: insert %v = (%d, added %v), want (%d, added %v)", width, k[:width], id, added, want, !seen)
			}
		}
		if doublings := bits.Len(uint(len(tbl.slots))) - bits.Len(8); doublings < 12 {
			t.Fatalf("width %d: %d slot doublings, want at least 12", width, doublings)
		}
		for _, id := range []int32{0, arenaChunkRows - 1, arenaChunkRows, 2*arenaChunkRows - 1, 2 * arenaChunkRows, distinct - 1} {
			k := order[id]
			if got := tbl.at(int(id)); !Tuple(got).Equal(Tuple(k[:width])) || cap(got) != width {
				t.Fatalf("width %d: at(%d) = %v (cap %d), want %v", width, id, got, cap(got), k[:width])
			}
		}
		for k, want := range ids {
			if got := tbl.find(k[:width]); got != want {
				t.Fatalf("width %d: find %v = %d, want %d", width, k[:width], got, want)
			}
		}
		for i := 0; i < 1000; i++ {
			k := randKey()
			if _, ok := ids[k]; (tbl.find(k[:width]) >= 0) != ok {
				t.Fatalf("width %d: find %v disagrees with the map", width, k[:width])
			}
		}
		if tbl.n != len(order) {
			t.Fatalf("width %d: the arena holds %d rows, want %d", width, tbl.n, len(order))
		}
		for i := 0; i < tbl.n; {
			flat, j := tbl.span(i, tbl.n)
			if len(flat) != (j-i)*width || (j < tbl.n && j%arenaChunkRows != 0) {
				t.Fatalf("width %d: span(%d) = %d values up to row %d, want whole rows up to a chunk end", width, i, len(flat), j)
			}
			for off := 0; i < j; i, off = i+1, off+width {
				if r := Tuple(flat[off : off+width]); !r.Equal(Tuple(order[i][:width])) {
					t.Fatalf("width %d: span row %d = %v, want %v", width, i, r, order[i][:width])
				}
			}
		}
	}
}

// --- allocation regression tests -------------------------------------------

// benchRelPair builds a single-shared-column join pair of the given size.
func benchRelPair(n int) (*Counted, *Counted) {
	a := &Counted{Attrs: []string{"A", "B"}}
	b := &Counted{Attrs: []string{"B", "C"}}
	for i := 0; i < n; i++ {
		appendRow(a, Tuple{int64(i), int64(i % 97)}, int64(i%3)+1)
		appendRow(b, Tuple{int64(i % 97), int64(i % 13)}, int64(i%2)+1)
	}
	return a, b
}

// TestJoinSingleColumnAllocs pins the allocation count of a join on one
// shared column: it must stay O(output/chunk), not O(rows).
func TestJoinSingleColumnAllocs(t *testing.T) {
	a, b := benchRelPair(1024)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Join(a, b); err != nil {
			t.Fatal(err)
		}
	})
	// The seed kernel allocated one string key plus one row per output
	// tuple (>20000 here); the arena kernel needs only the index, chunks,
	// and slice growth.
	if allocs > 186 {
		t.Errorf("single-column Join allocates %v times per run, want <= 186", allocs)
	}
}

// TestGroupBySingleColumnAllocs pins the allocation count of a group-by
// onto one column.
func TestGroupBySingleColumnAllocs(t *testing.T) {
	a, _ := benchRelPair(1024)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := a.GroupBy([]string{"B"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 63 {
		t.Errorf("single-column GroupBy allocates %v times per run, want <= 63", allocs)
	}
}

// TestJoinGroupFusedAllocs pins the fused kernel: it must not materialize
// the wide join (which would cost one arena row per match).
func TestJoinGroupFusedAllocs(t *testing.T) {
	a, b := benchRelPair(1024)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := JoinGroup(a, b, []string{"B"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 63 {
		t.Errorf("fused JoinGroup allocates %v times per run, want <= 63", allocs)
	}
}

// TestGroupByTwoColumnAllocs pins a group-by onto two columns: its
// intTable's slot array and chunked key arena must cost O(groups/chunk)
// allocations, not one per group (1,024 groups here).
func TestGroupByTwoColumnAllocs(t *testing.T) {
	a, _ := benchRelPair(1024)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := a.GroupBy([]string{"B", "A"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 23 {
		t.Errorf("two-column GroupBy allocates %v times per run, want <= 23", allocs)
	}
}

// TestJoinGroupTwoColumnAllocs pins the fused kernel grouping onto two
// columns, one from each side: its intTable grows through several slot
// doublings and arena chunks (13,312 groups here).
func TestJoinGroupTwoColumnAllocs(t *testing.T) {
	a, b := benchRelPair(1024)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := JoinGroup(a, b, []string{"A", "C"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 63 {
		t.Errorf("two-column JoinGroup allocates %v times per run, want <= 63", allocs)
	}
}

// TestFromRelationAllocs pins the arena-batched FromRelation.
func TestFromRelationAllocs(t *testing.T) {
	rows := make([]Tuple, 1024)
	for i := range rows {
		rows[i] = Tuple{int64(i % 200), int64(i % 11)}
	}
	r := MustNew("R", []string{"A", "B"}, rows)
	allocs := testing.AllocsPerRun(10, func() {
		FromRelation(r)
	})
	if allocs > 63 {
		t.Errorf("FromRelation allocates %v times per run, want <= 63", allocs)
	}
}

// --- kernel micro-benchmarks ------------------------------------------------

func BenchmarkKernelJoin1Col(b *testing.B) {
	x, y := benchRelPair(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelJoinGroupFused(b *testing.B) {
	x, y := benchRelPair(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JoinGroup(x, y, []string{"B"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelJoinGroupUnfused(b *testing.B) {
	x, y := benchRelPair(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := Join(x, y)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.GroupBy([]string{"B"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGroupBy1Col(b *testing.B) {
	x, _ := benchRelPair(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.GroupBy([]string{"B"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGroupByMultiCol(b *testing.B) {
	x, _ := benchRelPair(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.GroupBy([]string{"B", "A"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFromRelation(b *testing.B) {
	rows := make([]Tuple, 4096)
	for i := range rows {
		rows[i] = Tuple{int64(i % 512), int64(i % 17)}
	}
	r := MustNew("R", []string{"A", "B"}, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromRelation(r)
	}
}

func BenchmarkKernelProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randCounted(rng, []string{"A", "B"}, 4096, 1000)
	c.BuildIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var key [2]int64
		key[0], key[1] = int64(i%1000), int64(i%1000)
		c.Probe(key[:])
	}
}
