package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestAddSatSigned(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{5, -3, 2},
		{-5, 3, -2},
		{-5, -3, -8},
		{math.MaxInt64, 1, math.MaxInt64},
		{math.MinInt64, -1, math.MinInt64},
		{math.MaxInt64, math.MinInt64, -1},
	}
	for _, c := range cases {
		if got := AddSat(c.a, c.b); got != c.want {
			t.Errorf("AddSat(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSatSigned(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{3, -4, -12},
		{-3, -4, 12},
		{math.MaxInt64, -2, math.MinInt64},
		{math.MinInt64, -1, math.MaxInt64},
		{math.MinInt64, 2, math.MinInt64},
		{-1, math.MinInt64, math.MaxInt64},
	}
	for _, c := range cases {
		if got := MulSat(c.a, c.b); got != c.want {
			t.Errorf("MulSat(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestApplyDeltaPatchAndAppend(t *testing.T) {
	c := &Counted{Attrs: []string{"A", "B"}, Rows: []Tuple{{1, 1}, {1, 2}}, Cnt: []int64{3, 5}}
	c.BuildIndex()
	d := &Counted{Attrs: []string{"A", "B"}, Rows: []Tuple{{1, 2}, {2, 2}}, Cnt: []int64{-4, 7}}
	changed, err := c.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 || changed[0] != 1 || changed[1] != 2 {
		t.Fatalf("changed = %v", changed)
	}
	if len(c.Rows) != 3 || c.Cnt[1] != 1 || c.Cnt[2] != 7 || !c.Rows[2].Equal(Tuple{2, 2}) {
		t.Fatalf("after delta: rows=%v cnt=%v", c.Rows, c.Cnt)
	}
	// The maintained index must see both old and appended keys.
	if got, ok := c.Probe(Tuple{2, 2}); !ok || got != 7 {
		t.Fatalf("Probe appended key = %d, %v", got, ok)
	}
	if got, ok := c.Probe(Tuple{1, 2}); !ok || got != 1 {
		t.Fatalf("Probe patched key = %d, %v", got, ok)
	}
}

func TestApplyDeltaPermutedAttrs(t *testing.T) {
	c := &Counted{Attrs: []string{"A", "B"}, Rows: []Tuple{{1, 9}}, Cnt: []int64{2}}
	d := &Counted{Attrs: []string{"B", "A"}, Rows: []Tuple{{9, 1}}, Cnt: []int64{3}}
	if _, err := c.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if c.Cnt[0] != 5 {
		t.Fatalf("cnt = %d, want 5", c.Cnt[0])
	}
}

func TestApplyDeltaZeroAttr(t *testing.T) {
	c := &Counted{Attrs: nil}
	if _, err := c.ApplyDelta(&Counted{Attrs: nil, Rows: []Tuple{{}}, Cnt: []int64{4}}); err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 1 || c.Cnt[0] != 4 {
		t.Fatalf("zero-attr apply: %v %v", c.Rows, c.Cnt)
	}
	if _, err := c.ApplyDelta(&Counted{Attrs: nil, Rows: []Tuple{{}}, Cnt: []int64{-4}}); err != nil {
		t.Fatal(err)
	}
	if c.Cnt[0] != 0 {
		t.Fatalf("zero-attr net: %v", c.Cnt)
	}
}

// TestApplyDeltaTombstones checks the O(1) tombstone tally against a
// recount after every patch of random signed delta streams: over the
// zero-attribute table, a single-column one, and a permuted two-column one
// holding a saturated count, with zero-count delta rows appending
// tombstones outright.
func TestApplyDeltaTombstones(t *testing.T) {
	recount := func(c *Counted) int {
		n := 0
		for _, v := range c.Cnt {
			if v == 0 {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(17))
	for _, attrs := range [][]string{nil, {"A"}, {"A", "B"}} {
		c := &Counted{Attrs: attrs}
		if len(attrs) == 2 {
			c.Rows, c.Cnt = []Tuple{{0, 0}}, []int64{math.MaxInt64}
		}
		for step := 0; step < 500; step++ {
			d := &Counted{Attrs: attrs}
			if len(attrs) == 2 {
				d.Attrs = []string{"B", "A"}
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				row := make(Tuple, len(attrs))
				for i := range row {
					row[i] = int64(rng.Intn(3))
				}
				cnt := int64(rng.Intn(5) - 2)
				switch rng.Intn(25) {
				case 0:
					cnt = math.MaxInt64
				case 1:
					cnt = -math.MaxInt64
				}
				d.Rows = append(d.Rows, row)
				d.Cnt = append(d.Cnt, cnt)
			}
			if _, err := c.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if got, want := c.Tombstones(), recount(c); got != want {
				t.Fatalf("attrs %v step %d: Tombstones() = %d, recount %d (cnt %v)", attrs, step, got, want, c.Cnt)
			}
		}
		if got := c.Clone().Tombstones(); got != recount(c) {
			t.Fatalf("attrs %v: clone reports %d tombstones, want %d", attrs, got, recount(c))
		}
	}
}

// TestCompactDifferential interleaves Compact with random ApplyDelta
// sequences on 0- to 3-column tables and checks every compaction against a
// brute-force multiset: no tombstone survives, every live key probes to its
// count, re-indexed RowIndexes list exactly the live rows of each key, and
// tuples read before the compaction keep their values.
func TestCompactDifferential(t *testing.T) {
	type entry struct {
		row Tuple
		n   int64
	}
	keyOf := func(row Tuple, pos []int) string {
		key := make(Tuple, len(pos))
		for i, p := range pos {
			key[i] = row[p]
		}
		return string(encodeTuple(nil, key))
	}
	rng := rand.New(rand.NewSource(29))
	for width := 0; width <= 3; width++ {
		attrs := []string{"A", "B", "C"}[:width]
		all := []int{0, 1, 2}[:width]
		c := &Counted{Attrs: attrs}
		want := map[string]*entry{}
		var ixs []*RowIndex
		for lo := 0; lo < width; lo++ {
			ix, err := NewRowIndex(c, attrs[lo:])
			if err != nil {
				t.Fatal(err)
			}
			ixs = append(ixs, ix)
		}
		compactions := 0
		for step := 0; step < 2000; step++ {
			d := &Counted{Attrs: attrs}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				row := make(Tuple, width)
				for i := range row {
					row[i] = int64(rng.Intn(4))
				}
				e := want[keyOf(row, all)]
				if e == nil {
					e = &entry{row: row}
					want[keyOf(row, all)] = e
				}
				cnt := int64(1 + rng.Intn(2))
				if rng.Intn(2) == 0 { // delete, down to zero at most
					cnt = -min(cnt, e.n)
				}
				e.n += cnt
				d.Rows = append(d.Rows, row)
				d.Cnt = append(d.Cnt, cnt)
			}
			if _, err := c.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			for _, ix := range ixs {
				ix.Sync()
			}
			if rng.Intn(8) != 0 {
				continue
			}
			before := append([]Tuple(nil), c.Rows...)
			vals := make([]Tuple, len(before))
			for i, r := range before {
				vals[i] = r.Clone()
			}
			c.Compact()
			for _, ix := range ixs {
				ix.Reindex()
			}
			compactions++
			for i, r := range before {
				if !r.Equal(vals[i]) {
					t.Fatalf("width %d step %d: row %d read before Compact changed from %v to %v", width, step, i, vals[i], r)
				}
			}
			if c.Tombstones() != 0 || slices.Contains(c.Cnt, 0) {
				t.Fatalf("width %d step %d: tombstones left after Compact (tally %d, counts %v)", width, step, c.Tombstones(), c.Cnt)
			}
			live := 0
			for _, e := range want {
				if e.n != 0 {
					live++
				}
				if got, ok := c.Probe(e.row); ok != (e.n != 0) || got != e.n {
					t.Fatalf("width %d step %d: Probe(%v) = %d, %v, want %d", width, step, e.row, got, ok, e.n)
				}
			}
			if len(c.Rows) != live || len(c.Cnt) != live {
				t.Fatalf("width %d step %d: %d rows after Compact, want %d live", width, step, len(c.Rows), live)
			}
			for lo, ix := range ixs {
				byKey := map[string][]int32{}
				for r, row := range c.Rows {
					k := keyOf(row, all[lo:])
					byKey[k] = append(byKey[k], int32(r))
				}
				for _, e := range want {
					if got, exp := ix.Rows(e.row[lo:]), byKey[keyOf(e.row, all[lo:])]; !slices.Equal(got, exp) {
						t.Fatalf("width %d step %d: index on %v lists rows %v for %v, want %v", width, step, ix.Attrs(), got, e.row[lo:], exp)
					}
				}
			}
		}
		if compactions == 0 {
			t.Fatalf("width %d: no compaction ran", width)
		}
	}
}

func TestRowIndexSync(t *testing.T) {
	c := &Counted{Attrs: []string{"A", "B"}, Rows: []Tuple{{1, 10}, {2, 20}, {1, 30}}, Cnt: []int64{1, 1, 1}}
	ix, err := NewRowIndex(c, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Rows(Tuple{1}); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Rows(1) = %v", got)
	}
	if _, err := c.ApplyDelta(&Counted{Attrs: []string{"A", "B"}, Rows: []Tuple{{1, 40}}, Cnt: []int64{5}}); err != nil {
		t.Fatal(err)
	}
	ix.Sync()
	if got := ix.Rows(Tuple{1}); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Rows(1) after sync = %v", got)
	}
	if got := ix.Rows(Tuple{3}); got != nil {
		t.Fatalf("Rows(3) = %v, want nil", got)
	}
}

// TestExpandPlanDifferential checks the compiled delta kernel against the
// reference JoinGroupChain on random inputs, covering probe (contained),
// index (connected), and scan (cross product) steps.
func TestExpandPlanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randTable := func(attrs []string, n, dom int) *Counted {
		agg := make(map[string]bool)
		out := &Counted{Attrs: attrs}
		for len(out.Rows) < n {
			row := make(Tuple, len(attrs))
			for i := range row {
				row[i] = int64(rng.Intn(dom))
			}
			k := ""
			for _, v := range row {
				k += string(rune('a'+v)) + ","
			}
			if agg[k] {
				continue
			}
			agg[k] = true
			out.Rows = append(out.Rows, row)
			out.Cnt = append(out.Cnt, int64(1+rng.Intn(4)))
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		delta := randTable([]string{"A", "B"}, 1+rng.Intn(3), 4)
		for i := range delta.Cnt {
			if rng.Intn(2) == 0 {
				delta.Cnt[i] = -delta.Cnt[i]
			}
		}
		contained := randTable([]string{"B"}, 3, 4)      // probe step
		connected := randTable([]string{"B", "C"}, 6, 4) // index step
		disconnected := randTable([]string{"D"}, 3, 4)   // scan step
		keep := []string{"A", "C", "D"}
		tables := []*Counted{contained, connected, disconnected}

		plan, err := CompileExpand(delta.Attrs, tables, keep, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Run(delta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := JoinGroupChain(delta, tables, keep)
		if err != nil {
			t.Fatal(err)
		}
		// Compare as key→count maps (row order differs; zero rows dropped).
		wantMap := make(map[string]int64)
		for i, r := range want.Rows {
			k := ""
			for _, v := range r {
				k += string(rune('a'+v)) + ","
			}
			wantMap[k] += want.Cnt[i]
		}
		gotMap := make(map[string]int64)
		for i, r := range got.Rows {
			k := ""
			for _, v := range r {
				k += string(rune('a'+v)) + ","
			}
			gotMap[k] += got.Cnt[i]
		}
		for k, v := range wantMap {
			if v == 0 {
				delete(wantMap, k)
			}
		}
		if len(gotMap) != len(wantMap) {
			t.Fatalf("trial %d: got %v want %v", trial, gotMap, wantMap)
		}
		for k, v := range wantMap {
			if gotMap[k] != v {
				t.Fatalf("trial %d: key %s got %d want %d", trial, k, gotMap[k], v)
			}
		}
	}
}
