package relation

import (
	"math"
	"math/rand"
	"runtime"
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
	c := NewCounted([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}}, []int64{3, 5})
	c.BuildIndex()
	d := NewCounted([]string{"A", "B"}, []Tuple{{1, 2}, {2, 2}}, []int64{-4, 7})
	changed, err := c.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 || changed[0] != 1 || changed[1] != 2 {
		t.Fatalf("changed = %v", changed)
	}
	if c.Len() != 3 || c.Cnt[1] != 1 || c.Cnt[2] != 7 || !c.Row(2).Equal(Tuple{2, 2}) {
		t.Fatalf("after delta: rows=%v cnt=%v", rowsOf(c), c.Cnt)
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
	c := NewCounted([]string{"A", "B"}, []Tuple{{1, 9}}, []int64{2})
	d := NewCounted([]string{"B", "A"}, []Tuple{{9, 1}}, []int64{3})
	if _, err := c.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if c.Cnt[0] != 5 {
		t.Fatalf("cnt = %d, want 5", c.Cnt[0])
	}
}

func TestApplyDeltaZeroAttr(t *testing.T) {
	c := &Counted{Attrs: nil}
	if _, err := c.ApplyDelta(NewCounted(nil, []Tuple{{}}, []int64{4})); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.Cnt[0] != 4 {
		t.Fatalf("zero-attr apply: %v %v", rowsOf(c), c.Cnt)
	}
	if _, err := c.ApplyDelta(NewCounted(nil, []Tuple{{}}, []int64{-4})); err != nil {
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
			c = NewCounted(attrs, []Tuple{{0, 0}}, []int64{math.MaxInt64})
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
				appendRow(d, row, cnt)
			}
			if _, err := c.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if got, want := c.Tombstones(), recount(c); got != want {
				t.Fatalf("attrs %v step %d: Tombstones() = %d, recount %d (cnt %v)", attrs, step, got, want, c.Cnt)
			}
		}
	}
}

// TestCompactDifferential interleaves Compact with random ApplyDelta
// sequences on 0- to 3-column tables, over key domains wide enough that
// the tables outgrow the first key chunk's smallest size (64 rows) and a
// full chunk (4,096 rows), and checks every compaction against a
// brute-force multiset: no tombstone survives, every live key probes to its
// count, and re-indexed RowIndexes list exactly the live rows of each key,
// in ascending order. Around every ApplyDelta (some of which move the
// first chunk) and every Compact it checks that tuples read before the call
// keep their values, and that each row of a patched table is a view of its
// key in the table's lookup index, so the key is held once.
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
	// read copies the rows, and their values flat, before a call; kept
	// checks the values after it.
	var before []Tuple
	var vals []int64
	read := func(c *Counted) {
		before, vals = before[:0], vals[:0]
		for i := range c.Len() {
			before = append(before, c.Row(i))
			vals = append(vals, c.Row(i)...)
		}
	}
	kept := func(what string, width, step int) {
		t.Helper()
		for i, r := range before {
			if v := Tuple(vals[i*width : (i+1)*width]); !r.Equal(v) {
				t.Fatalf("width %d step %d: row %d read before %s changed from %v to %v", width, step, i, what, v, r)
			}
		}
	}
	heldOnce := func(c *Counted, width, step int) {
		t.Helper()
		if width == 0 {
			return
		}
		ix := c.lookupIdx.Load()
		if ix == nil || c.rows != &ix.tbl.arena || ix.rowOf != nil {
			t.Fatalf("width %d step %d: patched table does not share its index's key arena (%+v)", width, step, ix)
		}
		for i, r := range rowsOf(c) {
			if k := ix.tbl.at(i); &r[0] != &k[0] || cap(r) != width {
				t.Fatalf("width %d step %d: row %d (cap %d) is not a view of its index key", width, step, i, cap(r))
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for width := 0; width <= 3; width++ {
		attrs := []string{"A", "B", "C"}[:width]
		all := []int{0, 1, 2}[:width]
		dom := []int{1, 10000, 100, 22}[width] // about 10,000 keys
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
		compactions, moves, maxRows := 0, 0, 0
		for step := 0; step < 1200; step++ {
			d := &Counted{Attrs: attrs}
			for k := 1 + rng.Intn(14); k > 0; k-- {
				row := make(Tuple, width)
				for i := range row {
					row[i] = int64(rng.Intn(dom))
				}
				e := want[keyOf(row, all)]
				if e == nil {
					e = &entry{row: row}
					want[keyOf(row, all)] = e
				}
				cnt := int64(1 + rng.Intn(2))
				if rng.Intn(4) == 0 { // delete, down to zero at most
					cnt = -min(cnt, e.n)
				}
				e.n += cnt
				appendRow(d, row, cnt)
			}
			read(c)
			first := -1
			if ix := c.lookupIdx.Load(); ix != nil {
				first = cap(ix.tbl.chunks[0])
			}
			if _, err := c.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if ix := c.lookupIdx.Load(); ix != nil && first >= 0 && cap(ix.tbl.chunks[0]) != first {
				moves++
			}
			kept("ApplyDelta", width, step)
			heldOnce(c, width, step)
			for _, ix := range ixs {
				ix.Sync()
			}
			maxRows = max(maxRows, c.Len())
			if 4*c.Tombstones() <= c.Len() && rng.Intn(64) != 0 {
				continue
			}
			read(c)
			c.Compact()
			for _, ix := range ixs {
				ix.Reindex()
			}
			compactions++
			kept("Compact", width, step)
			heldOnce(c, width, step)
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
			if c.Len() != live || len(c.Cnt) != live {
				t.Fatalf("width %d step %d: %d rows after Compact, want %d live", width, step, c.Len(), live)
			}
			for lo, ix := range ixs {
				byKey := map[string][]int32{}
				for r, row := range rowsOf(c) {
					k := keyOf(row, all[lo:])
					byKey[k] = append(byKey[k], int32(r))
				}
				for _, e := range want {
					if got, exp := chain(ix, e.row[lo:]), byKey[keyOf(e.row, all[lo:])]; !slices.Equal(got, exp) {
						t.Fatalf("width %d step %d: index on %v lists rows %v for %v, want %v", width, step, ix.Attrs(), got, e.row[lo:], exp)
					}
				}
			}
		}
		if compactions == 0 {
			t.Fatalf("width %d: no compaction ran", width)
		}
		if width > 0 && (maxRows <= arenaChunkRows || moves == 0) {
			t.Fatalf("width %d: the table peaked at %d rows with %d first-chunk moves; the test must cross a full chunk and move the first", width, maxRows, moves)
		}
		t.Logf("width %d: %d compactions, %d first-chunk moves, peak %d rows", width, compactions, moves, maxRows)
	}
}

// TestApplyDeltaRequiresDistinctKeys checks that ApplyDelta refuses a
// table holding a key on two rows, with and without attributes, and leaves
// its rows, counts and probes as they were.
func TestApplyDeltaRequiresDistinctKeys(t *testing.T) {
	for _, c := range []*Counted{
		NewCounted([]string{"A", "B"}, []Tuple{{1, 1}, {2, 2}, {1, 1}}, []int64{1, 2, 3}),
		NewCounted(nil, []Tuple{{}, {}}, []int64{1, 2}),
	} {
		rows := make([]Tuple, c.Len())
		for i, r := range rowsOf(c) {
			rows[i] = r.Clone()
		}
		cnt := slices.Clone(c.Cnt)
		probe, _ := c.Probe(rows[0])
		key := make(Tuple, len(c.Attrs))
		d := NewCounted(c.Attrs, []Tuple{rows[0], key}, []int64{5, 7})
		if _, err := c.ApplyDelta(d); err == nil {
			t.Fatalf("attrs %v: ApplyDelta on a table with a repeated key succeeded", c.Attrs)
		}
		if c.Len() != len(rows) || !slices.Equal(c.Cnt, cnt) || c.Tombstones() != 0 {
			t.Fatalf("attrs %v: refused ApplyDelta changed the table to rows %v counts %v", c.Attrs, rowsOf(c), c.Cnt)
		}
		for i, r := range rowsOf(c) {
			if !r.Equal(rows[i]) {
				t.Fatalf("attrs %v: refused ApplyDelta changed row %d to %v", c.Attrs, i, r)
			}
		}
		if got, _ := c.Probe(rows[0]); got != probe {
			t.Fatalf("attrs %v: Probe after a refused ApplyDelta = %d, want %d", c.Attrs, got, probe)
		}
	}
}

// TestApplyDeltaAppendAllocs pins the append path of a patched table: 10,000
// fresh keys cost the index's chunks and slot array and the growth of the
// count slice, not an allocation per key.
func TestApplyDeltaAppendAllocs(t *testing.T) {
	const keys = 10000
	c := NewCounted([]string{"A", "B"}, []Tuple{{-1, -1}}, []int64{1})
	if _, err := c.ApplyDelta(NewCounted(c.Attrs, []Tuple{{-1, -1}}, []int64{1})); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls f once more than it measures; each call appends
	// keys the table does not hold yet.
	var deltas []*Counted
	for run := 0; run < 2; run++ {
		d := &Counted{Attrs: c.Attrs}
		for i := 0; i < keys; i++ {
			appendRow(d, Tuple{int64(run), int64(i)}, 1)
		}
		deltas = append(deltas, d)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := c.ApplyDelta(deltas[0]); err != nil {
			t.Fatal(err)
		}
		deltas = deltas[1:]
	})
	if c.Len() != 2*keys+1 {
		t.Fatalf("%d rows after appending %d keys twice, want %d", c.Len(), keys, 2*keys+1)
	}
	if allocs > 13 {
		t.Errorf("appending %d fresh keys allocates %v times, want at most 13", keys, allocs)
	}
}

// TestApplyDeltaAppendBytes pins the bytes allocated while 10,000 fresh
// width-2 keys are appended to a patched table. The table's rows are its
// index's keys, so an appended row costs its 16 bytes of key in the index's
// arena, its count and the index's slots, with their growth; a row header
// of its own (24 bytes and its append slack) would break the pin.
func TestApplyDeltaAppendBytes(t *testing.T) {
	const keys = 10000
	c := NewCounted([]string{"A", "B"}, []Tuple{{-1, -1}}, []int64{1})
	if _, err := c.ApplyDelta(NewCounted(c.Attrs, []Tuple{{-1, -1}}, []int64{1})); err != nil {
		t.Fatal(err)
	}
	d := &Counted{Attrs: c.Attrs}
	for i := 0; i < keys; i++ {
		appendRow(d, Tuple{0, int64(i)}, 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if c.Len() != keys+1 {
		t.Fatalf("%d rows after appending %d keys, want %d", c.Len(), keys, keys+1)
	}
	const pin = 850_000 // 832,608 measured; 1,809,456 with a row header per row
	if got := after.TotalAlloc - before.TotalAlloc; got > pin {
		t.Errorf("appending %d fresh keys allocates %d bytes, want at most %d", keys, got, pin)
	}
}

// TestRowIndexReindexAllocs pins Reindex to a constant number of
// allocations: it reuses its table and chain arrays, where one row list per
// distinct key (5,000 here) would cost one allocation each.
func TestRowIndexReindexAllocs(t *testing.T) {
	c := &Counted{Attrs: []string{"A", "B"}}
	for i := 0; i < 10000; i++ {
		appendRow(c, Tuple{int64(i % 5000), int64(i)}, 1)
	}
	ix, err := NewRowIndex(c, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, ix.Reindex); allocs > 2 {
		t.Errorf("Reindex allocates %v times, want at most 2", allocs)
	}
	if got := chain(ix, Tuple{7}); !slices.Equal(got, []int32{7, 5007}) {
		t.Fatalf("rows of key 7 after Reindex: %v, want [7 5007]", got)
	}
}

// TestRowIndexSyncAllocs pins Sync over one appended row to no allocation
// once the chain arrays have room for it: the index keeps its scratch key,
// where a key made per call would cost one allocation per update that
// appends to an indexed table.
func TestRowIndexSyncAllocs(t *testing.T) {
	const rows, extra = 1000, 101
	c := &Counted{Attrs: []string{"A", "B"}, rows: newArena(2, rows+extra), Cnt: make([]int64, 0, rows+extra)}
	for i := 0; i < rows; i++ {
		appendRow(c, Tuple{int64(i % 10), int64(i)}, 1)
	}
	ix, err := NewRowIndex(c, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	// Each row holds a key the index already has, so only the next array
	// grows; the first append grows it past its exact initial size.
	appendOne := func() {
		i := c.Len()
		appendRow(c, Tuple{int64(i % 10), int64(i)}, 1)
		ix.Sync()
	}
	appendOne()
	if allocs := testing.AllocsPerRun(extra-2, appendOne); allocs != 0 {
		t.Errorf("Sync over one appended row allocates %v times, want 0", allocs)
	}
	if got := chain(ix, Tuple{3}); len(got) != (rows+extra)/10 || got[len(got)-1] != rows+extra-8 {
		t.Fatalf("rows of key 3 after the appends: %v", got)
	}
}

// chain lists the rows a RowIndex holds for key, nil when it holds none.
func chain(ix *RowIndex, key Tuple) []int32 {
	var rows []int32
	for r := ix.First(key); r >= 0; r = ix.Next(r) {
		rows = append(rows, r)
	}
	return rows
}

func TestRowIndexSync(t *testing.T) {
	c := NewCounted([]string{"A", "B"}, []Tuple{{1, 10}, {2, 20}, {1, 30}}, []int64{1, 1, 1})
	ix, err := NewRowIndex(c, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if got := chain(ix, Tuple{1}); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Rows(1) = %v", got)
	}
	if _, err := c.ApplyDelta(NewCounted([]string{"A", "B"}, []Tuple{{1, 40}}, []int64{5})); err != nil {
		t.Fatal(err)
	}
	ix.Sync()
	if got := chain(ix, Tuple{1}); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Rows(1) after sync = %v", got)
	}
	if got := chain(ix, Tuple{3}); got != nil {
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
		for out.Len() < n {
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
			appendRow(out, row, int64(1+rng.Intn(4)))
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
		for i, r := range rowsOf(want) {
			k := ""
			for _, v := range r {
				k += string(rune('a'+v)) + ","
			}
			wantMap[k] += want.Cnt[i]
		}
		gotMap := make(map[string]int64)
		for i, r := range rowsOf(got) {
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
