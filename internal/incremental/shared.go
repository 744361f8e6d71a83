package incremental

// Plan stores: every session keeps its maintained tables in a PlanStore.
// PlanStore.Open opens a session inside a store, reading what the store
// already holds and building only what it lacks (Open and every rebuild
// use a new store, where the session is the only subscriber). A store
// shared by several sessions hash-conses the maintained tables of sessions
// with overlapping join-tree structure into refcounted nodes, so one delta
// patch per node fans out to every subscribed query instead of being
// recomputed per session.
//
// Member base projections, unit (bag) relations, and botjoin tables intern
// per join-tree subtree, keyed by the structural fingerprints of
// core.PlanShape: any two sessions whose queries name an identical subtree
// (same relations, variable bindings, selections, connectors —
// recursively) share those tables. Topjoin tables and multiplicity-table
// factor groups stay with their session; callers that want one copy of
// them keep one session per plan (the serving layer does).
//
// Delta application is lead/follower with per-node stream positions: all
// subscribers of a store are fed the same update stream; the first session
// to apply stream position p against a node computes the delta, patches
// the node's tables once, and records the delta in the node's slot; every
// later subscriber at p replays the slot without touching the tables. A
// store's only subscriber always leads. Positions are per *node*, not per
// store, so sessions whose shared regions differ interleave correctly: a
// node's tables advance exactly once per stream position no matter which
// subscriber reaches it first.
//
// The relations themselves are a tier too, interned by name: a store keeps
// one copy of each relation's rows and row multiset however many sessions
// subscribe, and the first subscriber to apply a stream position changes
// them and records the outcome for the others to replay (see sharedRows).
//
// Concurrency discipline: all sessions attached to one store must apply
// updates from a single goroutine (the serving layer's shard loop), must be
// fed identical update streams, and must step in lockstep: every subscriber
// applies stream position p before any applies p+1 (serve's stepGroup
// interleaves a round's updates one at a time across a store's sessions). The
// rows tier and the node slots rely on this, since each keeps one position
// only: a follower reads them only at the position they were written for,
// and applyRow fails a subscriber that finds the rows further ahead.
// Open reads the store's rows, so it runs on the stepping goroutine too, and
// it requires the store quiescent (no round in flight), which the serving
// layer guarantees by opening inside the shard loop at a round boundary.
// Stats may be called from any goroutine.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"tsens/internal/core"
	"tsens/internal/relation"
)

// errCollision refuses an Open whose relation or fingerprint hit a store
// entry that disagrees with the session's.
var errCollision = errors.New("incremental: plan store entry does not match the session's table (fingerprint collision)")

// sharedTabs is the index home of one maintained table: the secondary
// RowIndexes every subscriber's compiled plans probe. Build creates it next
// to its table; from then on it is owned by the table's store entry (not by
// any session), so whichever subscriber leads a patch syncs the indexes all
// of them use.
type sharedTabs struct {
	m map[string]*relation.RowIndex
}

func newSharedTabs() *sharedTabs {
	return &sharedTabs{m: make(map[string]*relation.RowIndex)}
}

func (st *sharedTabs) index(c *relation.Counted, attrs []string) (*relation.RowIndex, error) {
	key := strings.Join(attrs, "\x1f")
	if ix, ok := st.m[key]; ok {
		return ix, nil
	}
	ix, err := relation.NewRowIndex(c, attrs)
	if err != nil {
		return nil, err
	}
	st.m[key] = ix
	return ix, nil
}

func (st *sharedTabs) sync() {
	for _, ix := range st.m {
		ix.Sync()
	}
}

// reindex rebuilds every index after its table was compacted.
func (st *sharedTabs) reindex() {
	for _, ix := range st.m {
		ix.Reindex()
	}
}

// sharedBase is an interned member base projection.
type sharedBase struct {
	table *relation.Counted
	tabs  *sharedTabs
	pos   int64
}

// sharedNode is an interned join-tree subtree: the unit relation and
// botjoin at its root (everything deeper is interned by the child nodes),
// plus the slot followers replay: the deltas the lead computed at stream
// position at (−1 until a lead writes one), the unit relation delta drel
// (set only at the update's landing node) and the botjoin delta dbot.
// Counted deltas are immutable once produced, so followers read them
// without copying. Only the stepping goroutine touches the slot.
type sharedNode struct {
	rel, bot         *relation.Counted
	relTabs, botTabs *sharedTabs
	pos              int64
	at               int64
	drel, dbot       *relation.Counted
}

// record keeps a delta the lead computed at stream position pos, dropping
// those of an earlier position; a nil delta leaves its half of the slot.
func (n *sharedNode) record(pos int64, drel, dbot *relation.Counted) {
	if n.at != pos {
		n.at, n.drel, n.dbot = pos, nil, nil
	}
	if drel != nil {
		n.drel = drel
	}
	if dbot != nil {
		n.dbot = dbot
	}
}

// deltas returns what the lead recorded at stream position pos: nil where
// it recorded nothing, which is how followers observe "no change here".
func (n *sharedNode) deltas(pos int64) (drel, dbot *relation.Counted) {
	if n.at != pos {
		return nil, nil
	}
	return n.drel, n.dbot
}

// sharedRows is an interned database relation: the rows every subscriber
// reads (Rows, the input of a rebuild) and the row multiset that
// validates deletes. All subscribers of a store hold the same rows, since
// they start from the same state and are fed the same stream. The first
// subscriber to apply stream position p changes the rows and records p and
// the outcome in at and err; later subscribers at p replay that outcome, so
// a delete of an absent row fails for every subscriber alike.
type sharedRows struct {
	rel *relation.Relation
	set *relation.RowSet
	pos int64
	at  int64
	err error
}

// newSharedRows indexes a relation the caller owns.
func newSharedRows(r *relation.Relation) *sharedRows {
	return &sharedRows{rel: r, set: relation.NewRowSet(r)}
}

// apply inserts or deletes one row.
func (sr *sharedRows) apply(up Update) error {
	if up.Insert {
		sr.set.Insert(sr.rel, up.Row)
		return nil
	}
	return sr.set.Remove(sr.rel, up.Row)
}

type (
	internedBase = relation.Interned[*sharedBase]
	internedNode = relation.Interned[*sharedNode]
	internedRows = relation.Interned[*sharedRows]
)

// PlanStore owns the hash-cons maps and refcounts of one sharing domain.
// Create one per group of sessions fed an identical update stream (the
// serving layer keeps one per shard) and Open them in it.
type PlanStore struct {
	mu    sync.Mutex
	bases *relation.Interner[*sharedBase]
	nodes *relation.Interner[*sharedNode]
	rows  *relation.Interner[*sharedRows]
	subs  map[*Session]struct{}

	// clock is the number of stream updates fully applied through the
	// store: every interned entry sits at pos == clock whenever the store
	// is quiescent, and Open aligns a new subscriber's cursor to it.
	// Atomic: the stepping goroutine bumps it without the store lock
	// (the step-group discipline serializes subscribers), while Stats
	// reads it from arbitrary goroutines.
	clock atomic.Int64

	// fail poisons the store: a propagation error on a shared table may
	// leave it half-patched for every subscriber, so all of them fail fast
	// rather than serve corrupt state.
	fail error
}

// NewPlanStore returns an empty store.
func NewPlanStore() *PlanStore {
	return &PlanStore{
		bases: relation.NewInterner[*sharedBase](),
		nodes: relation.NewInterner[*sharedNode](),
		rows:  relation.NewInterner[*sharedRows](),
		subs:  make(map[*Session]struct{}),
	}
}

// PlanStoreStats is a point-in-time summary of a store. The json tags
// match the serving API's snake_case convention (GET /debug/plans embeds
// this struct verbatim).
type PlanStoreStats struct {
	Bases int `json:"bases"` // interned entries
	Nodes int `json:"nodes"`
	Rows  int `json:"rows"` // interned relation copies
	// Shared* count entries with more than one subscriber.
	SharedBases int `json:"shared_bases"`
	SharedNodes int `json:"shared_nodes"`
	SharedRows  int `json:"shared_rows"`
	// NodeRefs is the total node subscriptions; NodeRefs/Nodes is the
	// mean fan-out.
	NodeRefs    int   `json:"node_refs"`
	Subscribers int   `json:"subscribers"`
	Clock       int64 `json:"clock"`
}

// Stats summarizes the store. Safe to call from any goroutine.
func (ps *PlanStore) Stats() PlanStoreStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st := PlanStoreStats{
		Bases:       ps.bases.Len(),
		Nodes:       ps.nodes.Len(),
		Rows:        ps.rows.Len(),
		SharedBases: ps.bases.Shared(),
		SharedNodes: ps.nodes.Shared(),
		SharedRows:  ps.rows.Shared(),
		Subscribers: len(ps.subs),
		Clock:       ps.clock.Load(),
	}
	ps.nodes.Range(func(e *internedNode) { st.NodeRefs += e.Refs })
	return st
}

// tablesCompatible is the defensive check backing every fingerprint hit: a
// canonical table must agree with the opening session's own one on schema
// and live cardinality before the pointers are spliced. The comparison is
// logical, not physical: a canonical table that has lived through deletes
// carries zero-count tombstones a freshly solved session lacks, and those
// must not block a share. Fingerprints are content hashes, so a logical
// mismatch means a bug (or an open outside a quiescent point); refusing
// the share keeps every subscriber correct.
func tablesCompatible(canon, mine *relation.Counted) bool {
	if canon == mine {
		return true
	}
	if len(canon.Attrs) != len(mine.Attrs) {
		return false
	}
	for i, a := range canon.Attrs {
		if mine.Attrs[i] != a {
			return false
		}
	}
	return canon.Len()-canon.Tombstones() == mine.Len()-mine.Tombstones()
}

// Err reports the propagation error that poisoned the store, or nil. A
// poisoned store fails every update and refuses every Open; open new
// sessions in a new store instead.
func (ps *PlanStore) Err() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.fail
}

// ready reports why no session can open in the store now, or nil: it is
// poisoned, or a subscriber is mid-round (its entries sit at different
// positions). Caller holds ps.mu.
func (ps *PlanStore) ready() error {
	if ps.fail != nil {
		return fmt.Errorf("incremental: plan store poisoned: %w", ps.fail)
	}
	quiet := true
	clk := ps.clock.Load()
	ps.bases.Range(func(e *internedBase) { quiet = quiet && e.Val.pos == clk })
	ps.nodes.Range(func(e *internedNode) { quiet = quiet && e.Val.pos == clk })
	ps.rows.Range(func(e *internedRows) { quiet = quiet && e.Val.pos == clk })
	if !quiet {
		return fmt.Errorf("incremental: plan store not quiescent (round in flight)")
	}
	return nil
}

// compatible reports errCollision when a base projection, unit relation or
// botjoin of the session disagrees with the store's entry of equal
// fingerprint (tablesCompatible), or nil. Caller holds store.mu.
func (s *Session) compatible(store *PlanStore, shape *core.PlanShape) error {
	sol := s.sol
	for ui, u := range sol.Units {
		for mi, md := range u.Members {
			if e, ok := store.bases.Lookup(shape.Bases[ui][mi]); ok && !tablesCompatible(e.Val.table, md.Base) {
				return errCollision
			}
		}
		if e, ok := store.nodes.Lookup(shape.Nodes[ui]); ok &&
			!(tablesCompatible(e.Val.rel, u.Rel) && tablesCompatible(e.Val.bot, sol.Bot[ui])) {
			return errCollision
		}
	}
	return nil
}

// attach subscribes the session to store: each relation and fingerprint
// interned there replaces the session's copy (Open has checked every hit),
// every other relation (from rows) and table is donated as the new
// canonical entry, tables together with their index homes, and everything
// derived from pointers is re-wired. Caller holds store.mu.
func (s *Session) attach(store *PlanStore, shape *core.PlanShape, rows []*sharedRows) {
	sol := s.sol
	clk := store.clock.Load()

	// Tier 0: relation rows, keyed by name.
	s.srows = make(map[string]*internedRows, len(rows))
	rels := make([]*relation.Relation, len(rows))
	for i, sr := range rows {
		name := sr.rel.Name
		e, hit := store.rows.Lookup(name)
		if hit {
			store.rows.Retain(e)
		} else {
			e = store.rows.Put(name, &sharedRows{rel: sr.rel, set: sr.set, pos: clk})
		}
		s.srows[name] = e
		rels[i] = e.Val.rel
	}
	s.db = relation.MustNewDatabase(rels...)
	remap := make(map[*relation.Counted]*relation.Counted)
	sub := func(c *relation.Counted) *relation.Counted {
		if n, ok := remap[c]; ok {
			return n
		}
		return c
	}
	tabs := make(map[*relation.Counted]*sharedTabs, len(s.tabs))

	// Tier 1a: member base projections.
	s.sbase = make([][]*internedBase, len(sol.Units))
	for ui, u := range sol.Units {
		s.sbase[ui] = make([]*internedBase, len(u.Members))
		for mi, md := range u.Members {
			key := shape.Bases[ui][mi]
			e, hit := store.bases.Lookup(key)
			if hit {
				store.bases.Retain(e)
				remap[md.Base] = e.Val.table
				md.Base = e.Val.table
			} else {
				e = store.bases.Put(key, &sharedBase{table: md.Base, tabs: s.tabs[md.Base], pos: clk})
			}
			s.sbase[ui][mi] = e
			tabs[e.Val.table] = e.Val.tabs
		}
	}

	// Tier 1b: join-tree subtrees, after the bases because a singleton
	// unit's relation aliases its member's base (and shares its home).
	s.snode = make([]*internedNode, len(sol.Units))
	for i, u := range sol.Units {
		u.Rel = sub(u.Rel)
		key := shape.Nodes[i]
		e, hit := store.nodes.Lookup(key)
		if hit {
			store.nodes.Retain(e)
			remap[sol.Bot[i]] = e.Val.bot
			u.Rel, sol.Bot[i] = e.Val.rel, e.Val.bot
		} else {
			relTabs := tabs[u.Rel]
			if relTabs == nil {
				relTabs = s.tabs[u.Rel]
			}
			e = store.nodes.Put(key, &sharedNode{
				rel: u.Rel, bot: sol.Bot[i],
				relTabs: relTabs, botTabs: s.tabs[sol.Bot[i]],
				pos: clk, at: -1,
			})
		}
		s.snode[i] = e
		tabs[e.Val.rel] = e.Val.relTabs
		tabs[e.Val.bot] = e.Val.botTabs
	}

	// The session's own topjoins and factor groups: point the pieces at the
	// store's tables; the compiled plans captured indexes of replaced ones.
	for _, t := range sol.Top {
		if t != nil {
			tabs[t] = s.tabs[t]
		}
	}
	for _, g := range s.gts {
		for pi := range g.pieces {
			g.pieces[pi] = sub(g.pieces[pi])
		}
		g.plans = make([]*relation.ExpandPlan, len(g.pieces))
		tabs[g.table] = s.tabs[g.table]
	}
	s.tabs = tabs

	// Re-derive the dependency fan-out from the re-pointed factor groups,
	// and drop the edge-plan cache: its plans captured indexes of replaced
	// tables.
	s.deps = make(map[*relation.Counted][]pieceRef)
	s.memberGts = make(map[memberRef][]*gtState)
	for _, g := range s.gts {
		s.memberGts[g.ref] = append(s.memberGts[g.ref], g)
		for pi, p := range g.pieces {
			s.deps[p] = append(s.deps[p], pieceRef{g, pi})
		}
	}
	s.plans = make(map[edgeKey]*relation.ExpandPlan)

	s.store = store
	s.pos = clk
	store.subs[s] = struct{}{}
}

// takeRows returns the session's relations, ready to move into another
// store: a relation another subscriber still holds is cloned and
// re-indexed, the rest are taken over as they are.
func (s *Session) takeRows() []*sharedRows {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	rows := make([]*sharedRows, 0, len(s.srows))
	for _, name := range s.db.Names() {
		e := s.srows[name]
		if e.Refs > 1 {
			rows = append(rows, newSharedRows(e.Val.rel.Clone()))
		} else {
			rows = append(rows, e.Val)
		}
	}
	return rows
}

// detach takes the session's rows private and leaves its store, ahead of a
// rebuild into a store of its own: correctness never depends on staying in
// a shared store, and the subscribers left behind keep their rows.
func (s *Session) detach() []*sharedRows {
	rows := s.takeRows()
	s.ReleaseShared()
	return rows
}

// Store returns the plan store holding the session's relations and
// maintained tables: the one it was opened in, or one of its own after a
// rebuild.
func (s *Session) Store() *PlanStore { return s.store }

// ReleaseShared detaches the session from its store, dropping its
// references; entries reaching refcount zero are un-interned. The session
// no longer holds its rows afterwards and must be discarded — the serving
// layer calls this when unregistering a query. (Rebuild and bulk Apply
// leave a store through detach, which takes the rows private first.)
func (s *Session) ReleaseShared() {
	ps := s.store
	if ps == nil {
		return
	}
	ps.mu.Lock()
	for _, row := range s.sbase {
		for _, e := range row {
			ps.bases.Release(e)
		}
	}
	for _, e := range s.snode {
		ps.nodes.Release(e)
	}
	for _, e := range s.srows {
		ps.rows.Release(e)
	}
	delete(ps.subs, s)
	ps.mu.Unlock()
	s.store = nil
	s.pos = 0
	s.sbase = nil
	s.snode = nil
	s.srows = nil
}

// advance moves the session's stream cursor past one applied update,
// bumping every subscribed entry still waiting at this position (entries
// the update never touched advance with an implicit empty delta — a slot
// left at an earlier position is how followers observe "no change here").
func (s *Session) advance() {
	p := s.pos
	for _, row := range s.sbase {
		for _, e := range row {
			if e.Val.pos == p {
				e.Val.pos = p + 1
			}
		}
	}
	for _, e := range s.snode {
		if e.Val.pos == p {
			e.Val.pos = p + 1
		}
	}
	for _, e := range s.srows {
		if e.Val.pos == p {
			e.Val.pos = p + 1
		}
	}
	s.pos = p + 1
	if s.pos > s.store.clock.Load() {
		s.store.clock.Store(s.pos)
	}
}

// poisonStore marks the store failed after a propagation error that may
// have left a table half-patched; every subscriber fails fast from then on
// instead of serving corrupt state.
func (s *Session) poisonStore(err error) {
	s.store.mu.Lock()
	if s.store.fail == nil {
		s.store.fail = err
	}
	s.store.mu.Unlock()
}
