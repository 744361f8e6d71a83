package relation

// This file holds the hash-kernel primitives behind the counted-relation
// operators: the chunked row arena that stores every Counted's rows as flat
// []int64 blocks, a tag-filtered open-addressing hash table over
// fixed-width int64 keys held in such an arena (no per-row byte encoding or
// string interning), and a group-by aggregator over that table for keys of
// any width. Hash joins index their build side with a RowIndex (delta.go).
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

// arena stores fixed-width int64 rows in chunks of arenaChunkRows rows: row
// i lives in chunks[i>>arenaChunkShift] at offset
// (i&(arenaChunkRows-1))*width. Only the first chunk grows (by doubling,
// from the size it was made with up to a full chunk), moving its rows each
// time; later chunks are allocated full-size once, so a growing arena never
// copies the rows of a full chunk, and its unused capacity stays under one
// chunk. A stored row is never written again: a move copies it, and appends
// write past every row handed out, so a view of a row keeps its values.
// The first chunk's slice header lives in the arena itself, so an arena of
// one chunk costs no allocation for its chunk list.
type arena struct {
	width  int
	n      int // rows stored
	chunks [][]int64
	chunk0 [1][]int64 // chunks' backing array until a second chunk is added
}

const (
	arenaChunkShift = 12
	arenaChunkRows  = 1 << arenaChunkShift
)

// newArena returns an empty arena whose first chunk has room for firstRows
// rows (at least one, at most a full chunk).
func newArena(width, firstRows int) *arena {
	a := &arena{}
	a.init(width, firstRows)
	return a
}

func (a *arena) init(width, firstRows int) {
	a.width = width
	a.chunk0[0] = make([]int64, 0, min(max(firstRows, 1), arenaChunkRows)*width)
	a.chunks = a.chunk0[:]
}

// alloc appends a row and returns its storage for the caller to fill.
func (a *arena) alloc() []int64 {
	c := a.n >> arenaChunkShift
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]int64, 0, arenaChunkRows*a.width))
	}
	ch := a.chunks[c]
	off := len(ch)
	if off+a.width > cap(ch) { // only the first chunk grows
		ch = append(make([]int64, 0, min(2*cap(ch), arenaChunkRows*a.width)), ch...)
	}
	a.chunks[c] = ch[:off+a.width]
	a.n++
	return ch[off : off+a.width : off+a.width]
}

// at returns row i as a view of the arena's storage, its capacity clipped
// so an append on it can never write into the next row.
func (a *arena) at(i int) []int64 {
	u := uint32(i)
	off := int(u&(arenaChunkRows-1)) * a.width
	return a.chunks[u>>arenaChunkShift][off : off+a.width : off+a.width]
}

// span returns the rows [i, j) as one flat slice, where j is n or the end
// of the chunk holding row i, whichever comes first. Scans walk an arena
// chunk by chunk with it (a width of zero gives empty rows):
//
//	for i := 0; i < n; {
//		flat, j := a.span(i, n)
//		for off := 0; i < j; i, off = i+1, off+w {
//			row := flat[off : off+w : off+w]
//		}
//	}
func (a *arena) span(i, n int) ([]int64, int) {
	j := min(n, (i|(arenaChunkRows-1))+1)
	lo := (i & (arenaChunkRows - 1)) * a.width
	return a.chunks[i>>arenaChunkShift][lo : lo+(j-i)*a.width], j
}

// truncate drops the rows from n on. Only the arena's own builder may call
// it, before any of those rows was handed out.
func (a *arena) truncate(n int) {
	a.n = n
	c := n >> arenaChunkShift
	if c < len(a.chunks) {
		a.chunks[c] = a.chunks[c][:(n&(arenaChunkRows-1))*a.width]
		a.chunks = a.chunks[:c+1]
	}
}

// intTable is an open-addressing (linear probing) hash table mapping
// fixed-width []int64 keys to dense ids 0,1,2,… in insertion order. Distinct
// keys live in its arena, key id i as row i, so the table doubles as the
// row storage of a group-by result, and of a table ApplyDelta patches or
// Compact compacts (its probe index's arena holds its rows).
//
// Each slot is 4 bytes. A table of 2^k slots holds fewer than 2^k ids, so
// the low k bits hold id+1 (0 means empty) and the 32-k bits above them a
// tag taken from the high bits of the key's hash (10 or more tag bits below
// 4M slots). The slot index comes from the low hash bits, so tag and index
// are independent, and a probe compares keys only on a tag match: a miss
// almost never reads the arena. grow rehashes from the arena, a sequential
// read.
type intTable struct {
	slots  []uint32 // tag | id+1; 0 means empty
	mask   uint64   // len(slots)-1
	idMask uint32   // low bits of a slot holding id+1
	growAt int
	arena  // the keys; n counts them
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
	t := &intTable{}
	t.resize(size)
	t.init(width, firstRows)
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

// equalAt reports whether key id equals key. It reads the key unclipped
// (a clipped view costs the probe loops about 15%), and only reads it.
func (t *intTable) equalAt(id int32, key []int64) bool {
	u := uint32(id)
	off := int(u&(arenaChunkRows-1)) * t.width
	k := t.chunks[u>>arenaChunkShift][off : off+t.width]
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
			copy(t.alloc(), key)
			t.slots[i] = tag | uint32(id+1)
			return id, true
		}
		if s&^t.idMask == tag {
			if id := int32(s&t.idMask) - 1; t.equalAt(id, key) {
				return id, false
			}
		}
	}
}

func (t *intTable) grow() {
	t.resize(len(t.slots) * 2)
	for id := 0; id < t.n; id++ {
		h := hashKey(t.at(id))
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = t.tag(h) | uint32(id+1)
	}
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

// emit hands the accumulated groups to out: the table's key arena becomes
// out's row storage, and the slot array, which nothing reads any more, is
// let go.
func (g *groupAgg) emit(out *Counted) {
	if g.width == 0 {
		if g.zeroAny {
			out.rows = newArena(0, 1)
			out.rows.alloc()
			out.Cnt = []int64{g.zeroCnt}
		}
		return
	}
	g.tbl.slots = nil
	out.rows = &g.tbl.arena
	out.Cnt = g.cnt
}
