package incremental

// Delta propagation. A single-tuple update to relation R, projected onto
// R's effective variables, flows through the retained solver state in five
// phases, each reusing a cached relation.ExpandPlan so the per-update work
// is hash lookups only:
//
//  1. R's base projection is patched (it is a multiplicity-table piece for
//     co-members of R's bag).
//  2. R's unit relation absorbs the delta — identical to the base for
//     singleton units; for GHD bags the delta joins against the other
//     members of the bag.
//  3. Botjoins recompute along the leaf-to-root path through R's node:
//     Δ⊥(p) = γ_conn(p)( Δ⊥(child) ⋈ rel(p) ⋈ {⊥(other children)} ).
//     Topjoins on that path are provably unchanged, and the component
//     total is re-read from the root botjoin.
//  4. Topjoins fan out everywhere else: the children of R's node (their
//     parent relation changed) and the siblings of every path node (one
//     sibling botjoin changed) seed a BFS that descends while deltas stay
//     non-empty. Each affected topjoin has exactly one changed input,
//     because a single-tuple delta flows along a tree — so the multilinear
//     delta rule needs no operand ordering.
//  5. Every multiplicity-table factor group fed by a changed table absorbs
//     the corresponding delta, and its running maximum is adjusted (or
//     lazily invalidated when the argmax lost count).

import (
	"tsens/internal/query"
	"tsens/internal/relation"
)

// pieceRef addresses one piece of one maintained factor group.
type pieceRef struct {
	st    *gtState
	piece int
}

// edgeKey caches one compiled plan per (patched table, changed input).
type edgeKey struct {
	tgt, src *relation.Counted
}

// indexFor is the relation.IndexProvider handed to CompileExpand: every
// maintained table resolves through the index home its store entry owns,
// so all subscribers probe (and the patching lead syncs) one set of
// indexes.
func (s *Session) indexFor(c *relation.Counted, attrs []string) (*relation.RowIndex, error) {
	return s.tabs[c].index(c, attrs)
}

// apply patches table c with d and re-syncs c's index home. It is where a
// lead or a sole subscriber patches a table, so it also marks c for
// compaction once c's tombstones pass the watermark (see compactMarked).
func (s *Session) apply(c, d *relation.Counted) ([]int, error) {
	changed, err := c.ApplyDelta(d)
	if err != nil {
		return nil, err
	}
	s.tabs[c].sync()
	if w := s.opts.RebuildTombstoneRatio; w > 0 && float64(c.Tombstones()) > w*float64(c.Len()) {
		s.marked = append(s.marked, c)
	}
	return changed, nil
}

// gtState maintains one factor group of one member's multiplicity table:
// the patched group table, its selection filter, and a lazily-revalidated
// running maximum.
type gtState struct {
	ref    memberRef
	pieces []*relation.Counted
	table  *relation.Counted
	keepFn func(relation.Tuple) bool
	plans  []*relation.ExpandPlan // per changed-piece, compiled on demand
	argmax int
	max    int64
	valid  bool
}

// note folds freshly patched rows into the running maximum; a count drop on
// the current argmax schedules a lazy rescan.
func (g *gtState) note(changed []int) {
	if !g.valid {
		return
	}
	for _, r := range changed {
		cnt := g.table.Cnt[r]
		if g.keepFn != nil && !g.keepFn(g.table.Row(r)) {
			continue
		}
		if cnt > g.max {
			g.argmax, g.max = r, cnt
			continue
		}
		if r == g.argmax && cnt < g.max {
			g.valid = false
			return
		}
	}
}

// beforeCompact moves the running maximum's row position ahead of a
// compaction of the group table, which keeps the live rows in order: the
// argmax of a valid maximum holds a positive count, so it survives and
// moves down by the tombstones before it.
func (g *gtState) beforeCompact() {
	if !g.valid || g.argmax < 0 {
		return
	}
	dead := 0
	for _, cnt := range g.table.Cnt[:g.argmax] {
		if cnt == 0 {
			dead++
		}
	}
	g.argmax -= dead
}

// maxRow returns the selection-filtered maximum row and count, rescanning
// the table only when the cached maximum was invalidated.
func (g *gtState) maxRow() (relation.Tuple, int64) {
	if !g.valid {
		g.argmax, g.max = -1, 0
		for r, cnt := range g.table.Cnt {
			if cnt <= g.max {
				continue
			}
			if g.keepFn != nil && !g.keepFn(g.table.Row(r)) {
				continue
			}
			g.argmax, g.max = r, cnt
		}
		g.valid = true
	}
	if g.argmax < 0 || g.max <= 0 {
		return nil, 0
	}
	return g.table.Row(g.argmax), g.max
}

// edgeDelta evaluates γ_keep(delta ⋈ others) through a plan cached per
// (target table, changed input). The plan compiles once and survives
// in-place patches of every operand.
func (s *Session) edgeDelta(tgt, src, delta *relation.Counted, others []*relation.Counted, keep []string) (*relation.Counted, error) {
	k := edgeKey{tgt, src}
	plan, ok := s.plans[k]
	if !ok {
		var err error
		plan, err = relation.CompileExpand(delta.Attrs, others, keep, s.indexFor)
		if err != nil {
			return nil, err
		}
		s.plans[k] = plan
	}
	return plan.Run(delta)
}

// propagate pushes a member-base delta through phases 1–5 (see the file
// comment). dbase holds the projected tuple with a ±1 count.
func (s *Session) propagate(ref memberRef, dbase *relation.Counted) error {
	sol := s.sol
	u := sol.Units[ref.ui]
	md := u.Members[ref.mi]
	node := sol.Tree.Nodes[ref.ui]

	type change struct {
		table, delta *relation.Counted
	}
	var pieceChanges []change

	// Lead/follower election: for each store entry on this update's path,
	// the first subscriber to apply stream position s.pos computes the
	// delta, patches the entry's table, and records the delta in the node's
	// slot (lead); every later subscriber finds the entry already advanced
	// past its cursor and replays the slot without touching the table
	// (follower). Election is per entry, not per store — a session can lead
	// one node and follow another when their subscriber sets differ — and
	// is stable across the whole propagation because cursors only advance
	// after it completes. A store's sole subscriber always leads.
	sb := s.sbase[ref.ui][ref.mi].Val
	ln := s.snode[ref.ui].Val
	lnLead := ln.pos == s.pos

	// Phase 1: member base.
	if sb.pos == s.pos {
		if _, err := s.apply(md.Base, dbase); err != nil {
			return err
		}
	}
	pieceChanges = append(pieceChanges, change{md.Base, dbase})

	// Phase 2: unit relation.
	drel := dbase
	if !lnLead {
		if drel, _ = ln.deltas(s.pos); drel == nil {
			drel = &relation.Counted{Attrs: u.Vars} // lead saw no bag survivors
		}
	} else if u.Rel != md.Base {
		others := make([]*relation.Counted, 0, len(u.Members)-1)
		for _, m2 := range u.Members {
			if m2 != md {
				others = append(others, m2.Base)
			}
		}
		var err error
		drel, err = s.edgeDelta(u.Rel, md.Base, dbase, others, u.Vars)
		if err != nil {
			return err
		}
		if drel.Len() > 0 {
			if _, err := s.apply(u.Rel, drel); err != nil {
				return err
			}
		}
	}
	if lnLead && drel.Len() > 0 {
		ln.record(s.pos, drel, nil)
	}

	// Phase 3: botjoins up the path.
	type botChange struct {
		idx   int
		delta *relation.Counted
	}
	var botDeltas []botChange
	if drel.Len() > 0 {
		var dbot *relation.Counted
		if lnLead {
			childBots := make([]*relation.Counted, len(node.Children))
			for k, c := range node.Children {
				childBots[k] = sol.Bot[c.Index]
			}
			var err error
			dbot, err = s.edgeDelta(sol.Bot[ref.ui], u.Rel, drel, childBots, node.ConnectorVars())
			if err != nil {
				return err
			}
		} else if _, dbot = ln.deltas(s.pos); dbot == nil {
			dbot = &relation.Counted{Attrs: node.ConnectorVars()}
		}
		child, dchild := node, dbot
		for dchild.Len() > 0 {
			if sn := s.snode[child.Index].Val; sn.pos == s.pos {
				if _, err := s.apply(sol.Bot[child.Index], dchild); err != nil {
					return err
				}
				sn.record(s.pos, nil, dchild)
			}
			pieceChanges = append(pieceChanges, change{sol.Bot[child.Index], dchild})
			botDeltas = append(botDeltas, botChange{child.Index, dchild})
			p := child.Parent
			if p == nil {
				break
			}
			if sn := s.snode[p.Index].Val; sn.pos != s.pos {
				// The parent's lead already climbed through here this
				// position: replay its slot (nothing recorded = the climb
				// died at the parent, for every subscriber alike).
				_, dnext := sn.deltas(s.pos)
				if dnext == nil {
					break
				}
				child, dchild = p, dnext
				continue
			}
			operands := []*relation.Counted{sol.Units[p.Index].Rel}
			for _, c := range p.Children {
				if c != child {
					operands = append(operands, sol.Bot[c.Index])
				}
			}
			dnext, err := s.edgeDelta(sol.Bot[p.Index], sol.Bot[child.Index], dchild, operands, p.ConnectorVars())
			if err != nil {
				return err
			}
			child, dchild = p, dnext
		}
		// Re-read the component total from the root botjoin (O(1): it is
		// grouped by the empty connector). Unchanged if the climb stopped.
		rootIdx := sol.Comp[ref.ui]
		sol.Totals[rootIdx] = sol.Bot[rootIdx].SumCnt()
	}

	// Phase 4: topjoins, BFS from the seeds.
	type topJob struct {
		node       *query.Node
		src, delta *relation.Counted
	}
	var queue []topJob
	if drel.Len() > 0 {
		for _, c := range node.Children {
			queue = append(queue, topJob{c, u.Rel, drel})
		}
	}
	for _, bc := range botDeltas {
		bn := sol.Tree.Nodes[bc.idx]
		for _, sib := range bn.Siblings() {
			queue = append(queue, topJob{sib, sol.Bot[bc.idx], bc.delta})
		}
	}
	for len(queue) > 0 {
		job := queue[0]
		queue = queue[1:]
		i := job.node.Index
		parent := job.node.Parent
		var others []*relation.Counted
		if p := sol.Units[parent.Index].Rel; p != job.src {
			others = append(others, p)
		}
		if t := sol.Top[parent.Index]; t != nil && t != job.src {
			others = append(others, t)
		}
		for _, sib := range job.node.Siblings() {
			if b := sol.Bot[sib.Index]; b != job.src {
				others = append(others, b)
			}
		}
		dtop, err := s.edgeDelta(sol.Top[i], job.src, job.delta, others, job.node.ConnectorVars())
		if err != nil {
			return err
		}
		if dtop.Len() == 0 {
			continue
		}
		if _, err := s.apply(sol.Top[i], dtop); err != nil {
			return err
		}
		pieceChanges = append(pieceChanges, change{sol.Top[i], dtop})
		for _, c := range job.node.Children {
			queue = append(queue, topJob{c, sol.Top[i], dtop})
		}
	}

	// Phase 5: multiplicity-table factors. Each factor group sees at most
	// one changed piece per single-tuple update (deltas flow along a tree),
	// so the multilinear delta rule applies piece by piece.
	for _, ch := range pieceChanges {
		for _, ref2 := range s.deps[ch.table] {
			st := ref2.st
			plan := st.plans[ref2.piece]
			if plan == nil {
				others := make([]*relation.Counted, 0, len(st.pieces)-1)
				for pi, p := range st.pieces {
					if pi != ref2.piece {
						others = append(others, p)
					}
				}
				var err error
				plan, err = relation.CompileExpand(ch.delta.Attrs, others, st.table.Attrs, s.indexFor)
				if err != nil {
					return err
				}
				st.plans[ref2.piece] = plan
			}
			dgt, err := plan.Run(ch.delta)
			if err != nil {
				return err
			}
			if dgt.Len() == 0 {
				continue
			}
			changed, err := s.apply(st.table, dgt)
			if err != nil {
				return err
			}
			st.note(changed)
		}
	}
	return nil
}
