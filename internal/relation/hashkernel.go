package relation

// This file holds the hash-kernel primitives behind the counted-relation
// operators: a tag-filtered open-addressing hash table over fixed-width
// int64 keys held in a chunked arena (no per-row byte encoding or string
// interning), a chunked tuple arena that batches row storage into flat
// []int64 blocks, and a group-by aggregator over that table for keys of any
// width. Hash joins index their build side with a RowIndex (delta.go).
// Every structure is deterministic: iteration follows insertion order,
// never Go map order.

// mix64 is the splitmix64 finalizer, a strong cheap mixer for 64-bit lanes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashKey hashes a fixed-width key of int64 columns.
func hashKey(key []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range key {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// intTable is an open-addressing (linear probing) hash table mapping
// fixed-width []int64 keys to dense ids 0,1,2,… in insertion order. Distinct
// keys live in a chunked key arena, so the table doubles as the row storage
// of a group-by result, and of a table ApplyDelta patches or Compact
// compacts (its probe index's arena holds its rows).
//
// Each slot is 4 bytes. A table of 2^k slots holds fewer than 2^k ids, so
// the low k bits hold id+1 (0 means empty) and the 32-k bits above them a
// tag taken from the high bits of the key's hash (10 or more tag bits below
// 4M slots). The slot index comes from the low hash bits, so tag and index
// are independent, and a probe compares keys only on a tag match: a miss
// almost never reads the arena.
//
// The arena stores keys in chunks of arenaChunkRows rows. Only the first
// chunk grows (by doubling, from at most 64 rows, or the size
// newSizedIntTable gave it, up to a full chunk), moving its keys each time;
// later chunks are allocated full-size once, so a growing table never copies
// the keys of a full chunk, and its unused capacity stays under one chunk.
// grow rehashes from the arena, a sequential read. The first chunk's slice
// header lives in the table itself, so a table of one chunk costs no
// allocation for its chunk list.
type intTable struct {
	width  int
	slots  []uint32 // tag | id+1; 0 means empty
	mask   uint64   // len(slots)-1
	idMask uint32   // low bits of a slot holding id+1
	chunks [][]int64
	chunk0 [1][]int64 // chunks' backing array until a second chunk is added
	n      int
	growAt int
}

// groupHint caps the initial sizing of tables keyed by distinct values:
// distinct counts are routinely far below the row count, and an
// oversized zeroed table costs more (allocation, memclr, GC scan) than the
// geometric growth it avoids.
func groupHint(n int) int {
	if n > 1024 {
		return 1024
	}
	return n
}

// newIntTable sizes the table for about hint distinct keys. The hint bounds
// the distinct keys from above (a RowIndex may see few distinct keys among
// many rows), so the first chunk starts small and doubles as keys arrive.
func newIntTable(width, hint int) *intTable {
	return newSizedIntTable(width, hint, min(max(hint, 8), 64))
}

// newSizedIntTable sizes the table for about hint distinct keys and its
// first chunk for firstRows keys (at most a full chunk).
func newSizedIntTable(width, hint, firstRows int) *intTable {
	size := 8
	for size*3 < hint*4 { // keep load factor under 3/4 at the hint
		size *= 2
	}
	t := &intTable{width: width}
	t.resize(size)
	t.chunk0[0] = make([]int64, 0, min(firstRows, arenaChunkRows)*width)
	t.chunks = t.chunk0[:]
	return t
}

// resize replaces the slot array with an empty one of size slots (a power
// of two) and derives the id mask and growth threshold from it.
func (t *intTable) resize(size int) {
	t.slots = make([]uint32, size)
	t.mask = uint64(size - 1)
	t.idMask = uint32(size - 1)
	t.growAt = size * 3 / 4
}

// tag returns the slot tag of hash h: its high 32 bits with the id bits
// cleared.
func (t *intTable) tag(h uint64) uint32 {
	return uint32(h>>32) &^ t.idMask
}

func (t *intTable) keyAt(id int32) []int64 {
	u := uint32(id)
	off := int(u&(arenaChunkRows-1)) * t.width
	return t.chunks[u>>arenaChunkShift][off : off+t.width]
}

func (t *intTable) equalAt(id int32, key []int64) bool {
	k := t.keyAt(id)
	for i, v := range key {
		if k[i] != v {
			return false
		}
	}
	return true
}

// find returns the id of key, or -1.
func (t *intTable) find(key []int64) int32 {
	h := hashKey(key)
	tag := t.tag(h)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if s&^t.idMask == tag {
			if id := int32(s&t.idMask) - 1; t.equalAt(id, key) {
				return id
			}
		}
	}
}

// insert returns the id of key, adding it (copied into the arena) if absent.
func (t *intTable) insert(key []int64) (id int32, added bool) {
	if t.n >= t.growAt {
		t.grow()
	}
	h := hashKey(key)
	tag := t.tag(h)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			id = int32(t.n)
			t.appendKey(key)
			t.slots[i] = tag | uint32(id+1)
			t.n++
			return id, true
		}
		if s&^t.idMask == tag {
			if id := int32(s&t.idMask) - 1; t.equalAt(id, key) {
				return id, false
			}
		}
	}
}

// appendKey copies key into the arena as row t.n.
func (t *intTable) appendKey(key []int64) {
	c := t.n >> arenaChunkShift
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]int64, 0, arenaChunkRows*t.width))
	}
	ch := t.chunks[c]
	if len(ch)+t.width > cap(ch) { // only the first chunk grows
		ch = append(make([]int64, 0, min(2*cap(ch), arenaChunkRows*t.width)), ch...)
	}
	t.chunks[c] = append(ch, key...)
}

func (t *intTable) grow() {
	t.resize(len(t.slots) * 2)
	for id := 0; id < t.n; id++ {
		h := hashKey(t.keyAt(int32(id)))
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = t.tag(h) | uint32(id+1)
	}
}

// row returns key id as a tuple sharing the arena storage, its capacity
// clipped so an append on it can never write into the next key.
func (t *intTable) row(id int32) Tuple {
	return Tuple(t.keyAt(id)[:t.width:t.width])
}

// rows materializes the distinct keys as tuples sharing the arena storage.
func (t *intTable) rows() []Tuple {
	out := make([]Tuple, t.n)
	for id := range out {
		out[id] = t.row(int32(id))
	}
	return out
}

// reset empties the table, keeping its slot array and arena chunks for
// the keys inserted next.
func (t *intTable) reset() {
	clear(t.slots)
	for c := range t.chunks {
		t.chunks[c] = t.chunks[c][:0]
	}
	t.n = 0
}

// tupleArena hands out row storage carved from flat []int64 chunks, so that
// building an n-row relation costs O(n/arenaChunkRows) allocations instead
// of one per row. The first chunk is sized to the caller's row-count hint
// (small joins should not pay for 4096-row blocks); later chunks use the
// full block size.
type tupleArena struct {
	width    int
	chunk    []int64
	nextRows int
}

const (
	arenaChunkShift = 12
	arenaChunkRows  = 1 << arenaChunkShift
)

func newTupleArena(width, hintRows int) *tupleArena {
	if hintRows > arenaChunkRows {
		hintRows = arenaChunkRows
	}
	if hintRows < 1 {
		hintRows = 1
	}
	return &tupleArena{width: width, nextRows: hintRows}
}

// alloc returns a zeroed tuple of the arena's width. The capacity of the
// returned slice is clipped so appends on it can never bleed into the next
// row.
func (ar *tupleArena) alloc() Tuple {
	if ar.width == 0 {
		return Tuple{}
	}
	if len(ar.chunk)+ar.width > cap(ar.chunk) {
		ar.chunk = make([]int64, 0, ar.nextRows*ar.width)
		ar.nextRows = arenaChunkRows
	}
	off := len(ar.chunk)
	ar.chunk = ar.chunk[:off+ar.width]
	return Tuple(ar.chunk[off : off+ar.width : off+ar.width])
}

// groupAgg accumulates (key, count) pairs into distinct groups, preserving
// first-seen order. Keys of width one or more go through an intTable whose
// key arena becomes the output rows; width zero has the one keyless group.
type groupAgg struct {
	width   int
	tbl     *intTable
	cnt     []int64
	zeroCnt int64 // width==0: the single (keyless) group
	zeroAny bool
}

func newGroupAgg(width, hint int) *groupAgg {
	g := &groupAgg{width: width}
	if width > 0 {
		hint = groupHint(hint)
		g.tbl = newIntTable(width, hint)
		g.cnt = make([]int64, 0, hint)
	}
	return g
}

// add accumulates one key of the aggregator's width.
func (g *groupAgg) add(key []int64, cnt int64) {
	if g.width == 0 {
		g.zeroCnt = AddSat(g.zeroCnt, cnt)
		g.zeroAny = true
		return
	}
	id, added := g.tbl.insert(key)
	if added {
		g.cnt = append(g.cnt, cnt)
	} else {
		g.cnt[id] = AddSat(g.cnt[id], cnt)
	}
}

// emit writes the accumulated groups into out.Rows / out.Cnt.
func (g *groupAgg) emit(out *Counted) {
	if g.width == 0 {
		if g.zeroAny {
			out.Rows = []Tuple{{}}
			out.Cnt = []int64{g.zeroCnt}
		}
		return
	}
	out.Rows = g.tbl.rows()
	out.Cnt = g.cnt
}
