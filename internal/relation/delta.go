package relation

// This file implements the delta layer behind the incremental sensitivity
// engine (internal/incremental): in-place count patching of counted
// relations (ApplyDelta), secondary indexes over attribute subsets that
// survive appends (RowIndex), and a compiled delta-join-group kernel
// (ExpandPlan) evaluating γ_keep(Δ ⋈ p1 ⋈ … ⋈ pk) for a small signed delta
// against materialized tables. Deltas are ordinary Counted values whose Cnt
// entries may be negative; the saturating arithmetic in math.go is
// sign-aware for exactly this reason.

import "fmt"

// Update is a single-tuple change to a named base relation, the unit of
// work of an incremental session and of replayable update streams.
type Update struct {
	Rel string
	Row Tuple
	// Insert distinguishes insertion (true) from deletion (false).
	Insert bool
}

// ApplyDelta adds d's counts into c by full-row key: existing keys are
// patched in place, unseen keys are appended. d's attributes must be a
// permutation of c's, both relations must be exact (no top-k Default), and
// c must be key-distinct (no key on two rows), as every group-by output is;
// ApplyDelta keeps it so, and returns an error, leaving c unchanged, for a
// table that is not. Keys whose count reaches zero are kept as tombstones
// (they contribute nothing to any operator), counted by Tombstones; callers
// running unbounded update streams should Compact a table once its
// tombstones pass a fixed share of its rows.
//
// The lazy Probe/Lookup index of c is built if need be and maintained
// incrementally, so probes never trigger an O(n) rebuild after a patch. The
// patched table holds each key once: its row storage is the index's key
// arena, so an appended row is the key the index just stored, and a move of
// the arena's first chunk moves table and index alike. Existing row storage
// is never written, so a row read before the call keeps its values.
//
// The returned slice lists the indexes of the rows that were patched or
// appended, for callers tracking derived aggregates (e.g. maxima).
// ApplyDelta must not run concurrently with readers of c.
func (c *Counted) ApplyDelta(d *Counted) ([]int, error) {
	if d.Default != 0 || c.Default != 0 {
		return nil, fmt.Errorf("relation: ApplyDelta requires exact relations (Default=0)")
	}
	if d.Len() == 0 {
		return nil, nil
	}
	if len(d.Attrs) != len(c.Attrs) {
		return nil, fmt.Errorf("relation: ApplyDelta schema %v does not match %v", d.Attrs, c.Attrs)
	}
	changed := make([]int, 0, d.Len())
	if len(c.Attrs) == 0 {
		if c.Len() > 1 {
			return nil, errNotDistinct(c.Len(), 1)
		}
		var total int64
		for _, cnt := range d.Cnt {
			total = AddSat(total, cnt)
		}
		if c.Len() > 0 {
			c.patch(0, total)
			return append(changed, 0), nil
		}
		c.rows = newArena(0, 1)
		c.rows.alloc()
		c.Cnt = []int64{total}
		if total == 0 {
			c.zeroes++
		}
		return append(changed, 0), nil
	}
	perm, err := d.attrIndexes(c.Attrs)
	if err != nil {
		return nil, err
	}
	ix := c.index()
	if ix.tbl.n != c.Len() {
		return nil, errNotDistinct(c.Len(), ix.tbl.n)
	}
	// The index holds a copy of every row: read the rows from it, and let
	// the storage they were built in go.
	c.rows = &ix.tbl.arena
	key := make([]int64, len(c.Attrs))
	n, w := d.Len(), len(d.Attrs)
	for i := 0; i < n; {
		flat, j := d.span(i)
		for off := 0; i < j; i, off = i+1, off+w {
			row := flat[off : off+w]
			for k, p := range perm {
				key[k] = row[p]
			}
			id, added := ix.tbl.insert(key)
			r := int(id) // c is key-distinct: ids are row numbers
			changed = append(changed, r)
			if !added {
				c.patch(r, d.Cnt[i])
				continue
			}
			c.Cnt = append(c.Cnt, d.Cnt[i])
			if d.Cnt[i] == 0 {
				c.zeroes++
			}
			ix.n = c.Len()
		}
	}
	return changed, nil
}

func errNotDistinct(rows, keys int) error {
	return fmt.Errorf("relation: ApplyDelta requires a key-distinct table, but its %d rows hold %d distinct keys", rows, keys)
}

// patch adds delta to row r's count, moving the tombstone tally when the
// count crosses zero.
func (c *Counted) patch(r int, delta int64) {
	was := c.Cnt[r] == 0
	c.Cnt[r] = AddSat(c.Cnt[r], delta)
	if now := c.Cnt[r] == 0; now != was {
		if now {
			c.zeroes++
		} else {
			c.zeroes--
		}
	}
}

// Tombstones returns how many rows of c hold count zero, in O(1).
// ApplyDelta keeps the tally exact from a start of zero, so it assumes c
// held no zero-count row before its first patch — true of every relation
// this package's operators build from zero-free inputs.
func (c *Counted) Tombstones() int { return c.zeroes }

// Compact drops c's tombstones, keeping the live rows in order. The live
// rows are inserted into a new lookup index sized for them, whose key arena
// becomes c's row storage, so each key is held once and storage that held
// dead rows can be freed. Existing row storage is never written: a row read
// before the call keeps its values. Row positions move, so RowIndexes over
// c must be Reindexed afterwards. Like ApplyDelta, Compact must not run
// concurrently with readers of c.
func (c *Counted) Compact() {
	n, w := c.Len(), len(c.Attrs)
	live := n - c.zeroes
	cnt := make([]int64, 0, live)
	var ix *lookupIndex
	var rows *arena
	if w > 0 {
		ix = &lookupIndex{tbl: newSizedIntTable(w, live, live)}
		rows = &ix.tbl.arena
	} else {
		rows = newArena(0, live)
	}
	for i := 0; i < n; {
		flat, j := c.span(i)
		for off := 0; i < j; i, off = i+1, off+w {
			if c.Cnt[i] == 0 {
				continue
			}
			if ix != nil {
				ix.add(flat[off:off+w], len(cnt))
			} else {
				rows.alloc()
			}
			cnt = append(cnt, c.Cnt[i])
		}
	}
	c.rows, c.Cnt, c.zeroes = rows, cnt, 0
	if ix != nil {
		ix.n = len(cnt)
		c.lookupIdx.Store(ix)
	}
}

// RowIndex is a secondary index over a subset of a counted relation's
// attributes, mapping each key to the rows holding it. The hash joins build
// one per call over their build side; the incremental engine keeps one
// across deltas, since it survives in-place count patches and Sync extends
// it over rows appended since the last call (e.g. by ApplyDelta).
//
// Each key's rows form an ascending chain through flat arrays (the first
// and last row per key, the next row per row), so the index holds no
// per-key slice and walking a key's rows allocates nothing:
//
//	for r := ix.First(key); r >= 0; r = ix.Next(r) { ... }
type RowIndex struct {
	c     *Counted
	attrs []string
	idxs  []int
	tbl   *intTable
	first []int32 // key id -> first row holding the key
	last  []int32 // key id -> last row holding the key
	next  []int32 // row -> next row holding its key; -1 ends the chain
	key   []int64 // scratch key of Sync and probe
}

// NewRowIndex indexes c's rows on the non-empty attribute subset attrs.
func NewRowIndex(c *Counted, attrs []string) (*RowIndex, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: RowIndex needs at least one attribute")
	}
	idxs, err := c.attrIndexes(attrs)
	if err != nil {
		return nil, err
	}
	ix := newRowIndex(c, idxs)
	ix.attrs = append([]string(nil), attrs...)
	return ix, nil
}

// newRowIndex indexes c's rows on the columns idxs (len(idxs) >= 1).
func newRowIndex(c *Counted, idxs []int) *RowIndex {
	ix := &RowIndex{
		c:    c,
		idxs: idxs,
		tbl:  newIntTable(len(idxs), groupHint(c.Len())),
		next: make([]int32, 0, c.Len()),
		key:  make([]int64, len(idxs)),
	}
	ix.Sync()
	return ix
}

// Attrs returns the key attributes, in index order.
func (ix *RowIndex) Attrs() []string { return ix.attrs }

// Reindex rebuilds the index over the relation's current rows, after
// Counted.Compact moved them. The index keeps its identity, so plans
// compiled against it stay valid, and it reuses its table and chain
// arrays, so it allocates only when the rows outgrow them.
func (ix *RowIndex) Reindex() {
	ix.tbl.reset()
	ix.first, ix.last, ix.next = ix.first[:0], ix.last[:0], ix.next[:0]
	ix.Sync()
}

// Sync indexes the rows appended to the underlying relation since the index
// was built or last synced.
func (ix *RowIndex) Sync() {
	n, w := ix.c.Len(), len(ix.c.Attrs)
	for r := len(ix.next); r < n; {
		flat, j := ix.c.span(r)
		for off := 0; r < j; r, off = r+1, off+w {
			t := flat[off : off+w]
			for k, x := range ix.idxs {
				ix.key[k] = t[x]
			}
			id, added := ix.tbl.insert(ix.key)
			ix.next = append(ix.next, -1)
			if added {
				ix.first = append(ix.first, int32(r))
				ix.last = append(ix.last, int32(r))
				continue
			}
			ix.next[ix.last[id]] = int32(r)
			ix.last[id] = int32(r)
		}
	}
}

// First returns the lowest row whose key columns equal key (given in the
// index's attribute order), or -1 when the key is absent.
func (ix *RowIndex) First(key Tuple) int32 {
	id := ix.tbl.find(key)
	if id < 0 {
		return -1
	}
	return ix.first[id]
}

// Next returns the row after r holding r's key, or -1 after the last.
func (ix *RowIndex) Next(r int32) int32 { return ix.next[r] }

// probe returns the first row whose key equals the columns idxs of t (in
// the index's key order), or -1. It writes the index's scratch key, so
// probes of one index must not run concurrently.
func (ix *RowIndex) probe(t []int64, idxs []int) int32 {
	for k, x := range idxs {
		ix.key[k] = t[x]
	}
	return ix.First(ix.key)
}

// IndexProvider supplies RowIndexes over table attribute subsets, letting a
// caller (the incremental session) share one maintained index across every
// compiled plan that needs it. Implementations must keep returned indexes
// Synced with their tables.
type IndexProvider func(c *Counted, attrs []string) (*RowIndex, error)

// expandStep is one operand of a compiled delta expansion.
type expandStep struct {
	table *Counted
	// probe: every attribute of table is already bound in the accumulator;
	// the operand contributes a multiplier looked up by full key (a miss
	// means zero and prunes the branch).
	probe bool
	// scan: the operand shares no attribute with the accumulator (a cross
	// product within the group); every row is enumerated.
	scan    bool
	keyPos  []int     // accumulator positions feeding the key, operand order
	index   *RowIndex // non-probe, non-scan: rows matching the shared key
	newCols []int     // operand columns appended to the accumulator
	newPos  []int     // accumulator positions receiving them
	scratch Tuple
}

// ExpandPlan is a compiled evaluator of γ_keep(Δ ⋈ p1 ⋈ … ⋈ pk) for deltas
// over a fixed schema: each delta row is expanded through the operand
// tables by index lookups (never by rebuilding hash tables), counts
// multiply along each expansion branch, and the results aggregate by the
// keep attributes. Because the plan only holds table pointers and
// RowIndexes (re-synced at every Run), it stays valid while the tables are
// patched in place by ApplyDelta. A plan carries per-step scratch space and
// must not be Run concurrently.
type ExpandPlan struct {
	deltaAttrs []string
	keepAttrs  []string
	keepPos    []int
	accumLen   int
	steps      []*expandStep
}

// CompileExpand builds an ExpandPlan for deltas over deltaAttrs joined with
// tables and grouped by keep. The join order is greedy: operands fully
// covered by the accumulated schema first (pure multipliers), then
// connected operands smallest-first, with disconnected operands (cross
// products) last. Every keep attribute must be covered by the delta schema
// or some operand. indexFor supplies the shared RowIndexes; nil means
// private indexes are built once per plan.
func CompileExpand(deltaAttrs []string, tables []*Counted, keep []string, indexFor IndexProvider) (*ExpandPlan, error) {
	if indexFor == nil {
		indexFor = func(c *Counted, attrs []string) (*RowIndex, error) { return NewRowIndex(c, attrs) }
	}
	p := &ExpandPlan{
		deltaAttrs: append([]string(nil), deltaAttrs...),
		keepAttrs:  append([]string(nil), keep...),
	}
	accum := append([]string(nil), deltaAttrs...)
	pos := make(map[string]int, len(accum))
	for i, a := range accum {
		pos[a] = i
	}
	remaining := append([]*Counted(nil), tables...)
	for len(remaining) > 0 {
		// Pick the next operand: contained beats connected beats
		// disconnected; ties break on fewer rows, then position.
		best, bestKind, bestRows := -1, -1, 0
		for i, t := range remaining {
			shared := 0
			for _, a := range t.Attrs {
				if _, ok := pos[a]; ok {
					shared++
				}
			}
			kind := 0
			switch {
			case shared == len(t.Attrs):
				kind = 2
			case shared > 0:
				kind = 1
			}
			if kind > bestKind || (kind == bestKind && t.Len() < bestRows) {
				best, bestKind, bestRows = i, kind, t.Len()
			}
		}
		t := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		if t.Default != 0 {
			return nil, fmt.Errorf("relation: CompileExpand requires exact operands (Default=0)")
		}
		st := &expandStep{table: t}
		switch bestKind {
		case 2: // contained: probe by full key
			st.probe = true
			for _, a := range t.Attrs {
				st.keyPos = append(st.keyPos, pos[a])
			}
			st.scratch = make(Tuple, len(t.Attrs))
		case 1: // connected: index on the shared attrs, extend the schema
			shared := make([]string, 0, len(t.Attrs))
			for _, a := range t.Attrs {
				if _, ok := pos[a]; ok {
					shared = append(shared, a)
					st.keyPos = append(st.keyPos, pos[a])
				}
			}
			ix, err := indexFor(t, shared)
			if err != nil {
				return nil, err
			}
			st.index = ix
			st.scratch = make(Tuple, len(shared))
			for ci, a := range t.Attrs {
				if _, ok := pos[a]; !ok {
					st.newCols = append(st.newCols, ci)
					st.newPos = append(st.newPos, len(accum))
					pos[a] = len(accum)
					accum = append(accum, a)
				}
			}
		default: // disconnected: enumerate all rows (cross product)
			st.scan = true
			for ci, a := range t.Attrs {
				if _, ok := pos[a]; ok {
					continue // duplicate attr across disconnected operands is impossible, but stay safe
				}
				st.newCols = append(st.newCols, ci)
				st.newPos = append(st.newPos, len(accum))
				pos[a] = len(accum)
				accum = append(accum, a)
			}
		}
		p.steps = append(p.steps, st)
	}
	p.accumLen = len(accum)
	for _, a := range keep {
		i, ok := pos[a]
		if !ok {
			return nil, fmt.Errorf("relation: CompileExpand keep attribute %q not covered by delta %v or operands", a, deltaAttrs)
		}
		p.keepPos = append(p.keepPos, i)
	}
	return p, nil
}

// Run evaluates the plan over one delta, whose attributes must equal the
// compiled delta schema (in order). The result contains no zero-count rows,
// so applying it plants no tombstones.
func (p *ExpandPlan) Run(d *Counted) (*Counted, error) {
	out := &Counted{Attrs: append([]string(nil), p.keepAttrs...)}
	if d.Len() == 0 {
		return out, nil
	}
	if len(d.Attrs) != len(p.deltaAttrs) {
		return nil, fmt.Errorf("relation: delta schema %v does not match plan %v", d.Attrs, p.deltaAttrs)
	}
	for i, a := range p.deltaAttrs {
		if d.Attrs[i] != a {
			return nil, fmt.Errorf("relation: delta schema %v does not match plan %v", d.Attrs, p.deltaAttrs)
		}
	}
	// Re-sync the step indexes over any rows appended since the last Run, so
	// plans stay correct regardless of who owns the indexes (a no-op for
	// provider-owned indexes the caller already keeps in sync).
	for _, st := range p.steps {
		if st.index != nil {
			st.index.Sync()
		}
	}
	agg := newGroupAgg(len(p.keepPos), d.Len())
	accum := make([]int64, p.accumLen)
	key := make([]int64, len(p.keepPos))
	var rec func(si int, cnt int64)
	rec = func(si int, cnt int64) {
		if si == len(p.steps) {
			for k, x := range p.keepPos {
				key[k] = accum[x]
			}
			agg.add(key, cnt)
			return
		}
		st := p.steps[si]
		if st.probe {
			for k, x := range st.keyPos {
				st.scratch[k] = accum[x]
			}
			c, ok := st.table.Probe(st.scratch)
			if !ok || c == 0 {
				return
			}
			rec(si+1, MulSat(cnt, c))
			return
		}
		if st.scan {
			tb := st.table
			n, w := tb.Len(), len(tb.Attrs)
			for r := 0; r < n; {
				flat, j := tb.span(r)
				for off := 0; r < j; r, off = r+1, off+w {
					if tb.Cnt[r] == 0 {
						continue
					}
					for k, col := range st.newCols {
						accum[st.newPos[k]] = flat[off+col]
					}
					rec(si+1, MulSat(cnt, tb.Cnt[r]))
				}
			}
			return
		}
		for k, x := range st.keyPos {
			st.scratch[k] = accum[x]
		}
		for r := st.index.First(st.scratch); r >= 0; r = st.index.Next(r) {
			if st.table.Cnt[r] == 0 {
				continue
			}
			row := st.table.rows.at(int(r))
			for k, col := range st.newCols {
				accum[st.newPos[k]] = row[col]
			}
			rec(si+1, MulSat(cnt, st.table.Cnt[r]))
		}
	}
	n, w := d.Len(), len(d.Attrs)
	for i := 0; i < n; {
		flat, j := d.span(i)
		for off := 0; i < j; i, off = i+1, off+w {
			if d.Cnt[i] == 0 {
				continue
			}
			copy(accum[:w], flat[off:off+w])
			rec(0, d.Cnt[i])
		}
	}
	agg.emit(out)
	// Drop zero-net rows so downstream ApplyDelta plants no tombstones. No
	// view of out's rows exists yet, so they may move down in place.
	live := 0
	for i, cnt := range out.Cnt {
		if cnt == 0 {
			continue
		}
		if live != i {
			copy(out.rows.at(live), out.rows.at(i))
		}
		out.Cnt[live] = cnt
		live++
	}
	if live < out.Len() {
		out.Cnt = out.Cnt[:live]
		out.rows.truncate(live)
	}
	return out, nil
}
