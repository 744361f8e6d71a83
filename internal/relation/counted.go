package relation

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counted is an intermediate relation carrying an explicit multiplicity
// (cnt) column, exactly the representation the paper's r-join and group-by
// operators manipulate (Section 4.2).
//
// Default, when positive, is the count assumed for any key value not
// explicitly present. It implements the top-k approximation of Section 5.4:
// after truncating a group-by to its k most frequent rows, the remaining
// active-domain values are clamped to the k-th largest count. A Counted with
// Default == 0 is exact.
//
// The table is columnar: its rows, len(Attrs) int64 values each, live in
// one chunked arena, read through Row and counted by Len, and Cnt[i] is the
// multiplicity of row i. No row carries a slice header of its own. Build one
// from literal rows with NewCounted; the operators build theirs in arenas
// directly.
//
// Counted values must be used through pointers (they carry the lazy Lookup
// index state). A Counted is safe for concurrent reads, including Probe and
// Lookup, once BuildIndex has run; the operators never mutate their inputs.
type Counted struct {
	Attrs   []string
	Cnt     []int64
	Default int64

	// rows holds row i as arena row i; nil while the table has no rows. A
	// table ApplyDelta has patched shares its lookup index's key arena.
	rows *arena

	// zeroes counts the rows at count zero (tombstones); see Tombstones.
	zeroes int

	lookupMu  sync.Mutex
	lookupIdx atomic.Pointer[lookupIndex]
}

// lookupIndex is the lazily built hash index behind Probe/Lookup: full-row
// keys to the first row holding them. While the indexed rows are
// key-distinct, key id i is row i and rowOf stays nil; the first repeated
// key materializes it.
type lookupIndex struct {
	tbl   *intTable
	rowOf []int32 // id -> first row index; nil while ids are row numbers
	n     int     // Len() when built, to detect staleness
}

// add indexes row r, which follows every row indexed so far, and returns
// the id of its key.
func (ix *lookupIndex) add(t []int64, r int) int32 {
	id, added := ix.tbl.insert(t)
	switch {
	case added && ix.rowOf != nil:
		ix.rowOf = append(ix.rowOf, int32(r))
	case !added && ix.rowOf == nil:
		// Until now every row added a key, so ids were row numbers.
		ix.rowOf = make([]int32, ix.tbl.n)
		for i := range ix.rowOf {
			ix.rowOf[i] = int32(i)
		}
	}
	return id
}

// row returns the first row holding key id.
func (ix *lookupIndex) row(id int32) int {
	if ix.rowOf == nil {
		return int(id)
	}
	return int(ix.rowOf[id])
}

// FromRelation groups a base relation by all of its attributes, producing
// the deduplicated counted form with per-row multiplicities. Row storage is
// batch-allocated in flat arenas rather than cloned per row.
func FromRelation(r *Relation) *Counted {
	idxs := make([]int, len(r.Attrs))
	for i := range idxs {
		idxs[i] = i
	}
	return GroupRows(r.Attrs, r.Rows, idxs, nil)
}

// GroupRows aggregates raw unit-multiplicity rows by the key columns idxs in
// a single pass, returning a Counted over attrs (attrs[i] names column
// idxs[i] of the input rows). Rows failing keep (when non-nil) are dropped.
// It is the kernel behind FromRelation and the base-relation projections of
// the solver, which would otherwise deduplicate full-width rows only to
// group them again.
func GroupRows(attrs []string, rows []Tuple, idxs []int, keep func(Tuple) bool) *Counted {
	out := &Counted{Attrs: append([]string(nil), attrs...)}
	agg := newGroupAgg(len(idxs), len(rows))
	key := make([]int64, len(idxs))
	for _, t := range rows {
		if keep != nil && !keep(t) {
			continue
		}
		for k, x := range idxs {
			key[k] = t[x]
		}
		agg.add(key, 1)
	}
	agg.emit(out)
	return out
}

// Constant returns a zero-attribute Counted holding a single row with the
// given count. It is the identity element of Join.
func Constant(cnt int64) *Counted {
	return NewCounted(nil, []Tuple{{}}, []int64{cnt})
}

// NewCounted returns a Counted over attrs holding a copy of rows, with
// cnt[i] (copied too) the count of rows[i]. It panics unless every row has
// len(attrs) values and there is one count per row.
func NewCounted(attrs []string, rows []Tuple, cnt []int64) *Counted {
	if len(rows) != len(cnt) {
		panic(fmt.Sprintf("relation: NewCounted with %d rows but %d counts", len(rows), len(cnt)))
	}
	c := &Counted{Attrs: attrs, Cnt: append([]int64(nil), cnt...)}
	if len(rows) > 0 {
		c.rows = newArena(len(attrs), len(rows))
		for _, t := range rows {
			if len(t) != len(attrs) {
				panic(fmt.Sprintf("relation: NewCounted row %v does not fit attributes %v", t, attrs))
			}
			copy(c.rows.alloc(), t)
		}
	}
	return c
}

// Len returns the number of rows.
func (c *Counted) Len() int { return len(c.Cnt) }

// Row returns row i (0 <= i < Len()), in Attrs order, without allocating.
// The row is a read-only view of the table's storage, not a copy. Its
// values never change, not even when ApplyDelta or Compact later patch,
// grow or compact the table, so a caller may keep it; writing through it
// is a bug.
func (c *Counted) Row(i int) Tuple {
	_ = c.Cnt[i] // an arena's spare capacity lies past its last row
	return c.rows.at(i)
}

// span returns rows [i, j) of c as one flat slice of stride len(c.Attrs),
// j being Len() or the end of i's arena chunk; see arena.span.
func (c *Counted) span(i int) ([]int64, int) {
	return c.rows.span(i, len(c.Cnt))
}

// AttrIndex returns the position of attribute a, or -1.
func (c *Counted) AttrIndex(a string) int {
	for i, x := range c.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// attrIndexes maps attribute names to column positions, failing if any is
// missing.
func (c *Counted) attrIndexes(attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		j := c.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("counted relation: no attribute %q in %v", a, c.Attrs)
		}
		out[i] = j
	}
	return out, nil
}

// encodeTuple appends a fixed-width binary encoding of t to dst. The hash
// kernels no longer need it (they hash int64 columns directly); it remains
// as an independent canonical form for differential tests.
func encodeTuple(dst []byte, t Tuple) []byte {
	for _, v := range t {
		u := uint64(v)
		dst = append(dst,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return dst
}

// GroupBy implements γ_A(c): project onto attrs and sum counts per group
// (the paper's group-by-with-count-sum operator). A Default on c is
// propagated only when the projection keeps all attributes; otherwise the
// result is exact over the projected active domain and callers must treat it
// as an upper bound (this matches the top-k approximation contract).
//
// Keys of any width from one column up aggregate through an open-addressing
// table over their int64 columns, whose key arena doubles as the output row
// storage.
func (c *Counted) GroupBy(attrs []string) (*Counted, error) {
	idxs, err := c.attrIndexes(attrs)
	if err != nil {
		return nil, err
	}
	out := &Counted{Attrs: append([]string(nil), attrs...)}
	if len(attrs) == len(c.Attrs) {
		out.Default = c.Default
	}
	n, w := c.Len(), len(c.Attrs)
	agg := newGroupAgg(len(idxs), n)
	key := make([]int64, len(idxs))
	for i := 0; i < n; {
		flat, j := c.span(i)
		for off := 0; i < j; i, off = i+1, off+w {
			t := flat[off : off+w]
			for k, x := range idxs {
				key[k] = t[x]
			}
			agg.add(key, c.Cnt[i])
		}
	}
	agg.emit(out)
	return out, nil
}

// joinPlan is the shared front half of Join and JoinGroup: operand
// validation and key/extra column resolution.
type joinPlan struct {
	shared   []string
	aIdx     []int
	bIdx     []int
	extra    []string
	extraIdx []int
}

func planJoin(a, b *Counted) (*joinPlan, error) {
	p := &joinPlan{shared: Intersect(a.Attrs, b.Attrs)}
	if b.Default > 0 && !ContainsAll(a.Attrs, b.Attrs) {
		return nil, fmt.Errorf("join: approximate operand with attrs %v not contained in %v", b.Attrs, a.Attrs)
	}
	if a.Default > 0 {
		return nil, fmt.Errorf("join: left operand must be exact (Default=%d)", a.Default)
	}
	var err error
	if p.aIdx, err = a.attrIndexes(p.shared); err != nil {
		return nil, err
	}
	if p.bIdx, err = b.attrIndexes(p.shared); err != nil {
		return nil, err
	}
	p.extra = Minus(b.Attrs, p.shared)
	if p.extraIdx, err = b.attrIndexes(p.extra); err != nil {
		return nil, err
	}
	return p, nil
}

// Join implements the natural join r⋈ of the paper: match on shared
// attributes and multiply multiplicities. If the two inputs share no
// attributes the result is the cross product.
//
// If b carries a Default (top-k approximation), b's attributes must be a
// subset of a's: rows of a whose key is absent from b then join with count
// Default, preserving the upper-bound property.
//
// b is indexed on the shared columns by a RowIndex, whose ascending row
// chains give the output order; a's rows are scanned and the output rows
// written chunk by chunk.
func Join(a, b *Counted) (*Counted, error) {
	p, err := planJoin(a, b)
	if err != nil {
		return nil, err
	}
	out := &Counted{Attrs: Union(a.Attrs, b.Attrs)}
	if len(p.shared) == 0 && (b.Len() > 0 || b.Default == 0) {
		crossProductInto(out, a, b)
		return out, nil
	}
	// With no shared attributes and b empty, a Default on b (necessarily
	// zero-attribute, by the containment check) applies to every row of a:
	// every probe below misses.
	var ix *RowIndex
	if len(p.shared) > 0 {
		ix = newRowIndex(b, p.bIdx)
	}
	na, wa := a.Len(), len(a.Attrs)
	out.rows = newArena(len(out.Attrs), na)
	if ix != nil && ix.tbl.n == b.Len() {
		// Unique-keyed build side (e.g. any group-by output): at most one
		// output row per probe, so presize exactly once.
		out.Cnt = make([]int64, 0, na)
	}
	for i := 0; i < na; {
		flat, j := a.span(i)
		for off := 0; i < j; i, off = i+1, off+wa {
			t := flat[off : off+wa]
			r := int32(-1)
			if ix != nil {
				r = ix.probe(t, p.aIdx)
			}
			if r < 0 {
				if b.Default > 0 {
					copy(out.rows.alloc(), t)
					out.Cnt = append(out.Cnt, MulSat(a.Cnt[i], b.Default))
				}
				continue
			}
			for ; r >= 0; r = ix.next[r] {
				row := out.rows.alloc()
				copy(row, t)
				br := b.rows.at(int(r))
				for x, e := range p.extraIdx {
					row[wa+x] = br[e]
				}
				out.Cnt = append(out.Cnt, MulSat(a.Cnt[i], b.Cnt[r]))
			}
		}
	}
	return out, nil
}

// crossProductInto writes the cross product of a and b into out, whose
// Attrs must already be Union(a.Attrs, b.Attrs).
func crossProductInto(out *Counted, a, b *Counted) {
	na, nb, wa, wb := a.Len(), b.Len(), len(a.Attrs), len(b.Attrs)
	out.rows = newArena(wa+wb, na*nb)
	for i := 0; i < na; i++ {
		ta := a.rows.at(i)
		for j := 0; j < nb; {
			flat, end := b.span(j)
			for off := 0; j < end; j, off = j+1, off+wb {
				row := out.rows.alloc()
				copy(row, ta)
				copy(row[wa:], flat[off:off+wb])
				out.Cnt = append(out.Cnt, MulSat(a.Cnt[i], b.Cnt[j]))
			}
		}
	}
}

// JoinGroup is the composite γ_attrs(r⋈(a, b)) used on every edge of the
// top/botjoin recursions. It is a genuinely fused kernel: per-match counts
// are aggregated straight into the group table keyed by the projected
// columns, so the wide join rows are never materialized. The result is
// identical (up to row order) to Join followed by GroupBy, including the
// Default semantics of approximate operands.
func JoinGroup(a, b *Counted, attrs []string) (*Counted, error) {
	p, err := planJoin(a, b)
	if err != nil {
		return nil, err
	}
	unionAttrs := Union(a.Attrs, b.Attrs)
	// Resolve each group column against the virtual join schema: prefer a's
	// column (shared attributes are equal on both sides after matching).
	srcA := make([]int, len(attrs))
	srcB := make([]int, len(attrs))
	for i, at := range attrs {
		if j := a.AttrIndex(at); j >= 0 {
			srcA[i], srcB[i] = j, -1
			continue
		}
		j := b.AttrIndex(at)
		if j < 0 {
			return nil, fmt.Errorf("counted relation: no attribute %q in %v", at, unionAttrs)
		}
		srcA[i], srcB[i] = -1, j
	}
	out := &Counted{Attrs: append([]string(nil), attrs...)}
	na, wa := a.Len(), len(a.Attrs)
	agg := newGroupAgg(len(attrs), na)
	key := make([]int64, len(attrs))
	// fill sets key from row t of a and row br of b (nil when b has no
	// row to contribute, as every column then resolves to a).
	fill := func(t, br []int64) {
		for k := range key {
			if srcA[k] >= 0 {
				key[k] = t[srcA[k]]
			} else {
				key[k] = br[srcB[k]]
			}
		}
	}

	if len(p.shared) == 0 && (b.Len() > 0 || b.Default == 0) {
		nb, wb := b.Len(), len(b.Attrs)
		for i := 0; i < na; i++ {
			t := a.rows.at(i)
			for j := 0; j < nb; {
				flat, end := b.span(j)
				for off := 0; j < end; j, off = j+1, off+wb {
					fill(t, flat[off:off+wb])
					agg.add(key, MulSat(a.Cnt[i], b.Cnt[j]))
				}
			}
		}
		agg.emit(out)
		return out, nil
	}

	// As in Join, an empty zero-attribute b with a Default misses on every
	// row of a.
	var ix *RowIndex
	if len(p.shared) > 0 {
		ix = newRowIndex(b, p.bIdx)
	}
	for i := 0; i < na; {
		flat, j := a.span(i)
		for off := 0; i < j; i, off = i+1, off+wa {
			t := flat[off : off+wa]
			r := int32(-1)
			if ix != nil {
				r = ix.probe(t, p.aIdx)
			}
			if r < 0 {
				if b.Default > 0 {
					fill(t, nil) // b ⊆ a, so every column resolves to a
					agg.add(key, MulSat(a.Cnt[i], b.Default))
				}
				continue
			}
			for ; r >= 0; r = ix.next[r] {
				fill(t, b.rows.at(int(r)))
				agg.add(key, MulSat(a.Cnt[i], b.Cnt[r]))
			}
		}
	}
	agg.emit(out)
	return out, nil
}

// GreedyJoinOrder orders operands for a multiway join starting from
// pieces[0]: operands connected to the accumulated schema (sharing an
// attribute) go first, smallest row count first among them, so cross
// products happen only when unavoidable and intermediates stay small. The
// order is deterministic (ties break on position) and does not affect the
// join result. It is the shared ordering heuristic of GHD bag
// materialization and the solver's piece-group joins.
func GreedyJoinOrder(pieces []*Counted) []*Counted {
	if len(pieces) == 0 {
		return nil
	}
	remaining := append([]*Counted(nil), pieces...)
	ordered := []*Counted{remaining[0]}
	attrs := remaining[0].Attrs
	remaining = remaining[1:]
	for len(remaining) > 0 {
		pick := -1
		for i, p := range remaining {
			if len(Intersect(attrs, p.Attrs)) == 0 {
				continue
			}
			if pick < 0 || p.Len() < remaining[pick].Len() {
				pick = i
			}
		}
		if pick < 0 {
			pick = 0 // cross product fallback
		}
		ordered = append(ordered, remaining[pick])
		attrs = Union(attrs, remaining[pick].Attrs)
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return ordered
}

// JoinGroupChain computes γ_attrs(a ⋈ bs[0] ⋈ … ⋈ bs[k-1]), fusing the
// final join with the group-by — the shape of every botjoin/topjoin edge
// and of the Yannakakis counting pass.
//
// When every operand's attribute set is contained in a's — true on every
// join-tree edge, where operands are group-bys over connector variables —
// the whole chain collapses into a single pass over a's rows with one hash
// lookup per operand and no intermediate materialization at all (see
// joinGroupLookup).
func JoinGroupChain(a *Counted, bs []*Counted, attrs []string) (*Counted, error) {
	for {
		if len(bs) == 0 {
			return a.GroupBy(attrs)
		}
		// Once the accumulated schema covers every remaining operand (after
		// zero or more widening joins), finish in one lookup pass.
		if a.Default == 0 {
			contained := true
			for _, b := range bs {
				if !ContainsAll(a.Attrs, b.Attrs) {
					contained = false
					break
				}
			}
			if contained {
				return joinGroupLookup(a, bs, attrs)
			}
		}
		if len(bs) == 1 {
			return JoinGroup(a, bs[0], attrs)
		}
		var err error
		if a, err = Join(a, bs[0]); err != nil {
			return nil, err
		}
		bs = bs[1:]
	}
}

// lookupOp is one operand of joinGroupLookup compiled to a key→count table:
// the operand's rows summed by its (full) attribute tuple, addressed by the
// corresponding columns of the probing relation. The operand's cached lazy
// index is reused, so repeated edges over the same table build it exactly
// once; when the operand's rows are already key-distinct — always true for
// group-by outputs, i.e. every botjoin/topjoin table — its ids are row
// numbers and its counts are read in place.
type lookupOp struct {
	width  int
	aIdx   []int // positions of the operand's attrs within a, in operand order
	tbl    *intTable
	cnt    []int64 // id -> summed count (b.Cnt itself when b is key-distinct)
	scalar int64   // width==0 with rows: total count
	hasRow bool
	def    int64
}

func buildLookupOp(a, b *Counted) *lookupOp {
	op := &lookupOp{width: len(b.Attrs), def: b.Default}
	for _, at := range b.Attrs {
		op.aIdx = append(op.aIdx, a.AttrIndex(at))
	}
	if op.width == 0 {
		for _, c := range b.Cnt {
			op.scalar = AddSat(op.scalar, c)
			op.hasRow = true
		}
		return op
	}
	ix := b.index()
	op.tbl = ix.tbl
	if ix.tbl.n == b.Len() { // key-distinct: ids are row numbers
		op.cnt = b.Cnt
		return op
	}
	// Duplicate rows: sum counts per distinct key, probing the same cached
	// index (no second table build).
	op.cnt = make([]int64, ix.tbl.n)
	n, w := b.Len(), op.width
	for i := 0; i < n; {
		flat, j := b.span(i)
		for off := 0; i < j; i, off = i+1, off+w {
			id := ix.tbl.find(flat[off : off+w])
			op.cnt[id] = AddSat(op.cnt[id], b.Cnt[i])
		}
	}
	return op
}

// lookup returns the summed count matching row t of the probing relation,
// with ok=false on a miss (before Default handling). scratch must have the
// op's width.
func (op *lookupOp) lookup(t, scratch []int64) (int64, bool) {
	if op.width == 0 {
		if op.hasRow {
			return op.scalar, true
		}
		return 0, false
	}
	for k, x := range op.aIdx {
		scratch[k] = t[x]
	}
	id := op.tbl.find(scratch[:op.width])
	if id < 0 {
		return 0, false
	}
	return op.cnt[id], true
}

// joinGroupLookup is the chain kernel for operands contained in a: because
// no operand contributes new columns, all matches of one operand against a
// row of a collapse to a single summed multiplier, so
// γ_attrs(a ⋈ b1 ⋈ … ⋈ bk) is one pass over a's rows multiplying k table
// lookups (a miss applies the operand's Default, or drops the row) and
// aggregating straight into the group table.
func joinGroupLookup(a *Counted, bs []*Counted, attrs []string) (*Counted, error) {
	srcA := make([]int, len(attrs))
	for i, at := range attrs {
		j := a.AttrIndex(at)
		if j < 0 {
			return nil, fmt.Errorf("counted relation: no attribute %q in %v", at, a.Attrs)
		}
		srcA[i] = j
	}
	ops := make([]*lookupOp, len(bs))
	maxW := 0
	for i, b := range bs {
		ops[i] = buildLookupOp(a, b)
		if ops[i].width > maxW {
			maxW = ops[i].width
		}
	}
	out := &Counted{Attrs: append([]string(nil), attrs...)}
	n, w := a.Len(), len(a.Attrs)
	agg := newGroupAgg(len(attrs), n)
	key := make([]int64, len(attrs))
	scratch := make([]int64, maxW)

	for i := 0; i < n; {
		flat, j := a.span(i)
	rows:
		for off := 0; i < j; i, off = i+1, off+w {
			t := flat[off : off+w]
			cnt := a.Cnt[i]
			for _, op := range ops {
				s, ok := op.lookup(t, scratch)
				if !ok {
					if op.def > 0 {
						s = op.def
					} else {
						continue rows
					}
				}
				cnt = MulSat(cnt, s)
			}
			for k, x := range srcA {
				key[k] = t[x]
			}
			agg.add(key, cnt)
		}
	}
	agg.emit(out)
	return out, nil
}

// Semijoin keeps the rows of a whose shared-attribute key appears in b.
func Semijoin(a, b *Counted) (*Counted, error) {
	shared := Intersect(a.Attrs, b.Attrs)
	aIdx, err := a.attrIndexes(shared)
	if err != nil {
		return nil, err
	}
	bIdx, err := b.attrIndexes(shared)
	if err != nil {
		return nil, err
	}
	out := &Counted{Attrs: append([]string(nil), a.Attrs...), Default: a.Default}
	if b.Len() == 0 {
		return out, nil
	}
	// Zero-width keys: every row of a survives, as b is non-empty.
	var ix *RowIndex
	if len(shared) > 0 {
		ix = newRowIndex(b, bIdx)
	}
	n, w := a.Len(), len(a.Attrs)
	out.rows = newArena(w, n)
	for i := 0; i < n; {
		flat, j := a.span(i)
		for off := 0; i < j; i, off = i+1, off+w {
			t := flat[off : off+w]
			if ix == nil || ix.probe(t, aIdx) >= 0 {
				copy(out.rows.alloc(), t)
				out.Cnt = append(out.Cnt, a.Cnt[i])
			}
		}
	}
	return out, nil
}

// SumCnt returns the total multiplicity, i.e. |Q(D)| when c is a full join
// result.
func (c *Counted) SumCnt() int64 {
	var s int64
	for _, v := range c.Cnt {
		s = AddSat(s, v)
	}
	return s
}

// TopK truncates c to its k most frequent rows and records the k-th count as
// the Default for all other values (Section 5.4, "Efficient
// approximations"). If c has at most k rows it is returned unchanged.
func (c *Counted) TopK(k int) *Counted {
	if k <= 0 || c.Len() <= k {
		return c
	}
	order := make([]int, c.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return c.Cnt[order[x]] > c.Cnt[order[y]] })
	out := &Counted{Attrs: append([]string(nil), c.Attrs...), rows: newArena(len(c.Attrs), k)}
	for _, i := range order[:k] {
		copy(out.rows.alloc(), c.rows.at(i))
		out.Cnt = append(out.Cnt, c.Cnt[i])
	}
	out.Default = c.Cnt[order[k-1]]
	if c.Default > out.Default {
		out.Default = c.Default
	}
	return out
}

// index returns the full-row hash index, building (or rebuilding, when rows
// were appended since the last build) it under the lock and publishing it
// atomically so concurrent probes are lock-free afterwards.
func (c *Counted) index() *lookupIndex {
	n := c.Len()
	if ix := c.lookupIdx.Load(); ix != nil && ix.n == n {
		return ix
	}
	c.lookupMu.Lock()
	defer c.lookupMu.Unlock()
	if ix := c.lookupIdx.Load(); ix != nil && ix.n == n {
		return ix
	}
	w := len(c.Attrs)
	ix := &lookupIndex{tbl: newIntTable(w, groupHint(n)), n: n}
	for i := 0; i < n; {
		flat, j := c.span(i)
		for off := 0; i < j; i, off = i+1, off+w {
			ix.add(flat[off:off+w], i)
		}
	}
	c.lookupIdx.Store(ix)
	return ix
}

// BuildIndex eagerly builds the lazy Probe/Lookup hash index, making
// subsequent probes lock-free and safe for concurrent use.
func (c *Counted) BuildIndex() {
	if len(c.Attrs) > 0 {
		c.index()
	}
}

// Probe returns the count of the row equal to key (given in c.Attrs order)
// and whether it is explicitly present; the Default is not applied. The
// first probe builds a hash index over all rows, turning what used to be an
// O(n) scan into O(1) per call.
func (c *Counted) Probe(key Tuple) (int64, bool) {
	if len(key) != len(c.Attrs) {
		return 0, false
	}
	if len(c.Attrs) == 0 {
		if c.Len() > 0 {
			return c.Cnt[0], true
		}
		return 0, false
	}
	ix := c.index()
	id := ix.tbl.find(key)
	if id < 0 {
		return 0, false
	}
	return c.Cnt[ix.row(id)], true
}

// Lookup returns the count of the row matching key values over the given
// attributes (which must cover all of c's attributes in any order). Missing
// keys return the Default.
func (c *Counted) Lookup(attrs []string, vals Tuple) (int64, error) {
	if len(attrs) != len(vals) {
		return 0, fmt.Errorf("lookup: %d attrs but %d values", len(attrs), len(vals))
	}
	pos := make(map[string]int64, len(attrs))
	for i, a := range attrs {
		pos[a] = vals[i]
	}
	want := make(Tuple, len(c.Attrs))
	for i, a := range c.Attrs {
		v, ok := pos[a]
		if !ok {
			return 0, fmt.Errorf("lookup: attribute %q not provided", a)
		}
		want[i] = v
	}
	if cnt, ok := c.Probe(want); ok {
		return cnt, nil
	}
	return c.Default, nil
}
