package incremental

// Multi-query plan sharing: a PlanStore hash-conses the maintained tables
// of sessions with overlapping join-tree structure into refcounted shared
// nodes, so one delta patch per shared node fans out to every subscribed
// query instead of being recomputed per session.
//
// Sharing has two tiers, keyed by the structural fingerprints of
// core.PlanShape:
//
//   - Subtree tier: member base projections, unit (bag) relations, and
//     botjoin tables intern per join-tree subtree. Any two sessions whose
//     queries name an identical subtree (same relations, variable
//     bindings, selections, connectors — recursively) share those tables.
//   - Residue tier: when two sessions' *entire* plans fingerprint equal
//     (byte-identical queries, typically), the topjoin tables and the
//     multiplicity-table factor groups — "the residual (topjoin +
//     multiplicity-factor) state" — intern too, and a follower's
//     per-update work collapses to memo lookups.
//
// Delta application is lead/follower with per-node stream positions: all
// subscribers of a store are fed the same update stream; the first session
// to apply stream position p against a shared node computes the delta,
// patches the node's tables once, and memoizes the delta; every later
// subscriber at p replays the memo into its private residue without
// touching the shared tables. Positions are per *node*, not per store, so
// sessions whose shared regions differ interleave correctly: a node's
// tables advance exactly once per stream position no matter which
// subscriber reaches it first.
//
// Concurrency discipline: all sessions attached to one store must apply
// updates from a single goroutine (the serving layer's shard loop), and
// must be fed identical update streams. Adopt and ReleaseShared may be
// called from other goroutines — they touch only the refcount maps, under
// the store mutex — but Adopt additionally requires the store quiescent
// (no round in flight), which the serving layer guarantees by adopting
// either while the owning shard is idle or inside the shard loop at a round
// boundary.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"tsens/internal/relation"
)

// trimStride is how many updates an attached session applies between
// opportunistic memo trims (serving rounds also trim explicitly).
const trimStride = 256

// sharedTabs is the index home of one shared table: the secondary
// RowIndexes every subscriber's compiled plans probe. It is owned by the
// interned entry (not by any session), so whichever subscriber leads a
// patch syncs the indexes all of them use.
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

// nodeDelta is one memoized per-update delta of one shared node: the unit
// relation delta (set only at the update's landing node) and the botjoin
// delta. Counted deltas are immutable once produced, so followers read
// them without copying.
type nodeDelta struct {
	drel, dbot *relation.Counted
}

// sharedBase is an interned member base projection.
type sharedBase struct {
	table *relation.Counted
	tabs  *sharedTabs
	pos   int64
}

// sharedNode is an interned join-tree subtree: the unit relation and
// botjoin at its root (everything deeper is interned by the child nodes),
// plus the per-position delta memos followers replay.
type sharedNode struct {
	rel, bot         *relation.Counted
	relTabs, botTabs *sharedTabs
	pos              int64
	memo             map[int64]*nodeDelta
	// memoLen mirrors len(memo) for Stats: the memo map is owned by the
	// stepping goroutine, which writes it without the store lock (the
	// step-group discipline serializes subscribers), so Stats must read
	// the count through this atomic instead of the map.
	memoLen atomic.Int64
}

func (n *sharedNode) memoSet(pos int64, drel, dbot *relation.Counted) *nodeDelta {
	e := n.memo[pos]
	if e == nil {
		e = &nodeDelta{}
		n.memo[pos] = e
		n.memoLen.Add(1)
	}
	if drel != nil {
		e.drel = drel
	}
	if dbot != nil {
		e.dbot = dbot
	}
	return e
}

// sharedResidue is an interned whole-plan residue: the topjoin tables and
// multiplicity-table factor groups of a plan, shared only between sessions
// whose full plan fingerprints match index-for-index.
type sharedResidue struct {
	tops    []*relation.Counted
	topTabs []*sharedTabs
	gts     []*gtState
	gtTabs  []*sharedTabs // index homes of gts[i].table, same order
	pos     int64
}

type (
	internedBase    = relation.Interned[*sharedBase]
	internedNode    = relation.Interned[*sharedNode]
	internedResidue = relation.Interned[*sharedResidue]
)

// PlanStore owns the hash-cons maps and refcounts of one sharing domain.
// Create one per group of sessions fed an identical update stream (the
// serving layer keeps one per shard per routing discipline).
type PlanStore struct {
	mu       sync.Mutex
	bases    *relation.Interner[*sharedBase]
	nodes    *relation.Interner[*sharedNode]
	residues *relation.Interner[*sharedResidue]
	subs     map[*Session]struct{}

	// clock is the number of stream updates fully applied through the
	// store: every interned entry sits at pos == clock whenever the store
	// is quiescent, and Adopt aligns a new subscriber's cursor to it.
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
		bases:    relation.NewInterner[*sharedBase](),
		nodes:    relation.NewInterner[*sharedNode](),
		residues: relation.NewInterner[*sharedResidue](),
		subs:     make(map[*Session]struct{}),
	}
}

// AdoptStats reports what a session's Adopt call shared versus donated.
type AdoptStats struct {
	// BasesShared/NodesShared count tables adopted from the store
	// (another session donated them first); the *Donated counters are
	// this session's tables interned as new canonical entries.
	BasesShared, BasesDonated int
	NodesShared, NodesDonated int
	// ResidueShared reports whether the whole-plan residue (topjoins +
	// multiplicity factors) was adopted; ResidueDonated whether this
	// session's became canonical. Both false when partial subtree sharing
	// made the residue ineligible.
	ResidueShared, ResidueDonated bool
}

// FullShare reports whether every botjoin node was adopted from the store
// — the "second registration shares 100% of its botjoin nodes" property.
func (a AdoptStats) FullShare() bool {
	return a.NodesDonated == 0 && a.BasesDonated == 0 && a.NodesShared > 0
}

// PlanStoreStats is a point-in-time summary of a store. The json tags
// match the serving API's snake_case convention (GET /debug/plans embeds
// this struct verbatim).
type PlanStoreStats struct {
	Bases    int `json:"bases"` // interned entries
	Nodes    int `json:"nodes"`
	Residues int `json:"residues"`
	// Shared* count entries with more than one subscriber.
	SharedBases    int `json:"shared_bases"`
	SharedNodes    int `json:"shared_nodes"`
	SharedResidues int `json:"shared_residues"`
	// NodeRefs is the total node subscriptions; NodeRefs/Nodes is the
	// mean fan-out.
	NodeRefs    int   `json:"node_refs"`
	Subscribers int   `json:"subscribers"`
	MemoEntries int   `json:"memo_entries"`
	Clock       int64 `json:"clock"`
}

// Stats summarizes the store. Safe to call from any goroutine.
func (ps *PlanStore) Stats() PlanStoreStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st := PlanStoreStats{
		Bases:          ps.bases.Len(),
		Nodes:          ps.nodes.Len(),
		Residues:       ps.residues.Len(),
		SharedBases:    ps.bases.Shared(),
		SharedNodes:    ps.nodes.Shared(),
		SharedResidues: ps.residues.Shared(),
		Subscribers:    len(ps.subs),
		Clock:          ps.clock.Load(),
	}
	ps.nodes.Range(func(e *internedNode) {
		st.MemoEntries += int(e.Val.memoLen.Load())
		st.NodeRefs += e.Refs
	})
	return st
}

// Trim drops memoized deltas no live subscriber can still need. The
// serving layer calls it after each drain round; attached sessions also
// call it opportunistically every trimStride updates. Must not run
// concurrently with subscriber update application (same-goroutine
// discipline), because it reads subscriber cursors.
func (ps *PlanStore) Trim() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	min := ps.clock.Load()
	for s := range ps.subs {
		if s.pos < min {
			min = s.pos
		}
	}
	ps.nodes.Range(func(e *internedNode) {
		for p := range e.Val.memo {
			if p < min {
				delete(e.Val.memo, p)
				e.Val.memoLen.Add(-1)
			}
		}
	})
}

// tablesCompatible is the defensive check backing every fingerprint hit: a
// canonical table must agree with the adopter's private one on schema and
// live cardinality before the pointers are spliced. The comparison is
// logical, not physical: a canonical table that has lived through deletes
// carries zero-count tombstones a freshly solved adopter lacks, and those
// must not block a share. Fingerprints are content hashes, so a logical
// mismatch means a bug (or an adopt outside a quiescent point); refusing
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
	return liveRows(canon) == liveRows(mine)
}

// liveRows counts rows with nonzero multiplicity (tombstones excluded).
func liveRows(c *relation.Counted) int {
	n := 0
	for i := range c.Rows {
		cnt := c.Default
		if i < len(c.Cnt) {
			cnt = c.Cnt[i]
		}
		if cnt != 0 {
			n++
		}
	}
	return n
}

// Adopt attaches the session to store, hash-consing its maintained state:
// every member base and join-tree subtree already interned (and
// compatible) replaces the session's private copy, everything else is
// donated as the new canonical entry, and when the entire plan matches an
// interned one the topjoin/multiplicity residue is shared too. The
// session's database clone and rowsets stay private (reads like Has and
// Rows are per-session), as do component totals.
//
// The session must be at the same database state as the store's
// subscribers (same snapshot + same replayed stream), and the store must
// be quiescent — no subscriber mid-update. On any error the session is
// left unattached and fully private; sharing is strictly an optimization.
func (s *Session) Adopt(store *PlanStore) (AdoptStats, error) {
	var st AdoptStats
	if s.store != nil {
		return st, fmt.Errorf("incremental: session already attached to a plan store")
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	if store.fail != nil {
		return st, fmt.Errorf("incremental: plan store poisoned: %w", store.fail)
	}
	quiet := true
	clk := store.clock.Load()
	store.bases.Range(func(e *internedBase) { quiet = quiet && e.Val.pos == clk })
	store.nodes.Range(func(e *internedNode) { quiet = quiet && e.Val.pos == clk })
	store.residues.Range(func(e *internedResidue) { quiet = quiet && e.Val.pos == clk })
	if !quiet {
		return st, fmt.Errorf("incremental: plan store not quiescent (round in flight)")
	}

	sol := s.sol
	shape := sol.PlanShape()
	remap := make(map[*relation.Counted]*relation.Counted)
	sub := func(c *relation.Counted) *relation.Counted {
		if n, ok := remap[c]; ok {
			return n
		}
		return c
	}
	shared := make(map[*relation.Counted]*sharedTabs)

	// Tier 1a: member base projections.
	sbase := make(map[memberRef]*internedBase)
	baseOK := make([][]bool, len(sol.Units))
	for ui, u := range sol.Units {
		baseOK[ui] = make([]bool, len(u.Members))
		for mi, md := range u.Members {
			key := shape.Bases[ui][mi]
			if e, ok := store.bases.Lookup(key); ok {
				if !tablesCompatible(e.Val.table, md.Base) {
					continue // fingerprint collision: keep this member private
				}
				store.bases.Retain(e)
				remap[md.Base] = e.Val.table
				md.Base = e.Val.table
				sbase[memberRef{ui, mi}] = e
				shared[e.Val.table] = e.Val.tabs
				st.BasesShared++
			} else {
				sb := &sharedBase{table: md.Base, tabs: newSharedTabs(), pos: store.clock.Load()}
				sbase[memberRef{ui, mi}] = store.bases.Put(key, sb)
				shared[md.Base] = sb.tabs
				st.BasesDonated++
			}
			baseOK[ui][mi] = true
		}
	}

	// Tier 1b: join-tree subtrees, leaf to root. A node interns only when
	// its whole subtree did (children and members), so shared regions are
	// subtree-closed and a climb crosses from shared into private state at
	// most once.
	snode := make([]*internedNode, len(sol.Units))
	nodeOK := make([]bool, len(sol.Units))
	var adoptNode func(i int)
	adoptNode = func(i int) {
		node := sol.Tree.Nodes[i]
		ok := true
		for _, c := range node.Children {
			adoptNode(c.Index)
			ok = ok && nodeOK[c.Index]
		}
		for _, mok := range baseOK[i] {
			ok = ok && mok
		}
		if !ok {
			return
		}
		u := sol.Units[i]
		u.Rel = sub(u.Rel) // singleton units alias their member's base
		key := shape.Nodes[i]
		if e, hit := store.nodes.Lookup(key); hit {
			if !tablesCompatible(e.Val.rel, u.Rel) || !tablesCompatible(e.Val.bot, sol.Bot[i]) {
				return
			}
			store.nodes.Retain(e)
			remap[u.Rel] = e.Val.rel
			remap[sol.Bot[i]] = e.Val.bot
			u.Rel = e.Val.rel
			sol.Bot[i] = e.Val.bot
			snode[i] = e
			shared[e.Val.rel] = e.Val.relTabs
			shared[e.Val.bot] = e.Val.botTabs
			st.NodesShared++
		} else {
			relTabs := shared[u.Rel]
			if relTabs == nil {
				relTabs = newSharedTabs()
			}
			n := &sharedNode{
				rel: u.Rel, bot: sol.Bot[i],
				relTabs: relTabs, botTabs: newSharedTabs(),
				pos:  store.clock.Load(),
				memo: make(map[int64]*nodeDelta),
			}
			snode[i] = store.nodes.Put(key, n)
			shared[n.rel] = n.relTabs
			shared[n.bot] = n.botTabs
			st.NodesDonated++
		}
		nodeOK[i] = true
	}
	for _, root := range sol.Tree.Roots {
		adoptNode(root.Index)
	}

	// Tier 2: whole-plan residue, eligible only when every subtree interned
	// (the residue's pieces must all be canonical tables).
	var sres *internedResidue
	resOK := true
	for i := range sol.Units {
		resOK = resOK && nodeOK[i]
	}
	if resOK {
		if e, hit := store.residues.Lookup(shape.Plan); hit {
			ok := len(e.Val.tops) == len(sol.Top)
			for i := range sol.Top {
				if !ok {
					break
				}
				if (e.Val.tops[i] == nil) != (sol.Top[i] == nil) {
					ok = false
				} else if sol.Top[i] != nil {
					ok = tablesCompatible(e.Val.tops[i], sol.Top[i])
				}
			}
			if ok {
				store.residues.Retain(e)
				for i, t := range sol.Top {
					if t != nil {
						remap[t] = e.Val.tops[i]
					}
				}
				sol.Top = e.Val.tops
				s.gts = e.Val.gts
				sres = e
				for i, t := range e.Val.tops {
					if t != nil {
						shared[t] = e.Val.topTabs[i]
					}
				}
				for gi, g := range e.Val.gts {
					shared[g.table] = e.Val.gtTabs[gi]
				}
				st.ResidueShared = true
			}
		} else {
			// Donate: remap this session's factor-group pieces onto the
			// canonical tables first, so later adopters find entries whose
			// pieces are exactly the store's tables.
			topTabs := make([]*sharedTabs, len(sol.Top))
			for i, t := range sol.Top {
				if t != nil {
					topTabs[i] = newSharedTabs()
					shared[t] = topTabs[i]
				}
			}
			gtTabs := make([]*sharedTabs, len(s.gts))
			for gi, g := range s.gts {
				for pi := range g.pieces {
					g.pieces[pi] = sub(g.pieces[pi])
				}
				g.plans = make([]*relation.ExpandPlan, len(g.pieces))
				gtTabs[gi] = newSharedTabs()
				shared[g.table] = gtTabs[gi]
			}
			r := &sharedResidue{tops: sol.Top, topTabs: topTabs, gts: s.gts, gtTabs: gtTabs, pos: store.clock.Load()}
			sres = store.residues.Put(shape.Plan, r)
			st.ResidueDonated = true
		}
	}

	// Rewire everything derived from the swapped pointers: factor-group
	// pieces, the dependency fan-out, the table set (shared tables leave
	// the tombstone tally; private ones re-track), and the plan caches
	// (they captured indexes of discarded private tables).
	if !st.ResidueShared {
		for _, g := range s.gts {
			for pi := range g.pieces {
				g.pieces[pi] = sub(g.pieces[pi])
			}
			g.plans = make([]*relation.ExpandPlan, len(g.pieces))
		}
	}
	s.deps = make(map[*relation.Counted][]pieceRef)
	s.memberGts = make(map[memberRef][]*gtState)
	for _, g := range s.gts {
		s.memberGts[g.ref] = append(s.memberGts[g.ref], g)
		for pi, p := range g.pieces {
			s.deps[p] = append(s.deps[p], pieceRef{g, pi})
		}
	}
	s.tables = newTableSet()
	s.tables.shared = shared
	trk := func(c *relation.Counted) {
		// Shared tables leave the tombstone-ratio bookkeeping entirely:
		// compaction rebuilds a session (detaching it), so its watermark
		// should watch only the state a rebuild would actually reclaim.
		if _, ok := shared[c]; !ok {
			s.tables.track(c)
		}
	}
	for i, u := range sol.Units {
		trk(sol.Bot[i])
		trk(u.Rel)
		for _, md := range u.Members {
			trk(md.Base)
		}
	}
	for _, t := range sol.Top {
		trk(t)
	}
	for _, g := range s.gts {
		trk(g.table)
	}
	s.plans = make(map[edgeKey]*relation.ExpandPlan)

	s.store = store
	s.pos = store.clock.Load()
	s.sbase = sbase
	s.snode = snode
	s.sres = sres
	s.adopt = st
	store.subs[s] = struct{}{}
	return st, nil
}

// AdoptStats returns what Adopt shared/donated; zero when unattached.
func (s *Session) AdoptStats() AdoptStats { return s.adopt }

// Shared reports whether the session is currently attached to a PlanStore.
func (s *Session) Shared() bool { return s.store != nil }

// ReleaseShared detaches the session from its store, dropping its
// references; entries reaching refcount zero are un-interned. The session
// must not apply further updates until rebuilt (rebuild detaches first,
// so Rebuild/bulk Apply remain safe) — the serving layer calls this when
// unregistering a query, where the session is discarded outright.
func (s *Session) ReleaseShared() {
	store := s.store
	if store == nil {
		return
	}
	store.mu.Lock()
	for _, e := range s.sbase {
		store.bases.Release(e)
	}
	for _, e := range s.snode {
		if e != nil {
			store.nodes.Release(e)
		}
	}
	if s.sres != nil {
		store.residues.Release(s.sres)
	}
	delete(store.subs, s)
	store.mu.Unlock()
	s.store = nil
	s.pos = 0
	s.sbase = nil
	s.snode = nil
	s.sres = nil
	s.adopt = AdoptStats{}
}

// sharedBaseOf returns the shared entry backing a member's base, or nil.
func (s *Session) sharedBaseOf(ref memberRef) *sharedBase {
	if s.sbase == nil {
		return nil
	}
	if e, ok := s.sbase[ref]; ok {
		return e.Val
	}
	return nil
}

// sharedNodeOf returns the shared subtree entry at unit ui, or nil.
func (s *Session) sharedNodeOf(ui int) *sharedNode {
	if s.snode == nil || s.snode[ui] == nil {
		return nil
	}
	return s.snode[ui].Val
}

// advanceShared moves the session's stream cursor past one applied update,
// bumping every subscribed entry still waiting at this position (entries
// the update never touched advance with an implicit empty delta — memo
// absence is how followers observe "no change here").
func (s *Session) advanceShared() {
	if s.store == nil {
		return
	}
	p := s.pos
	for _, e := range s.sbase {
		if e.Val.pos == p {
			e.Val.pos = p + 1
		}
	}
	for _, e := range s.snode {
		if e != nil && e.Val.pos == p {
			e.Val.pos = p + 1
		}
	}
	if s.sres != nil && s.sres.Val.pos == p {
		s.sres.Val.pos = p + 1
	}
	s.pos = p + 1
	if s.pos > s.store.clock.Load() {
		s.store.clock.Store(s.pos)
	}
	if s.pos%trimStride == 0 {
		s.store.Trim()
	}
}

// poisonStore marks the store failed after a propagation error that may
// have left a shared table half-patched; every subscriber fails fast from
// then on instead of serving corrupt state.
func (s *Session) poisonStore(err error) {
	if s.store == nil {
		return
	}
	s.store.mu.Lock()
	if s.store.fail == nil {
		s.store.fail = err
	}
	s.store.mu.Unlock()
}
