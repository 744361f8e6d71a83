package serve

// Plans and plan stores (docs/SERVING.md "Registration and plan sharing").
// A session's maintained state depends only on the join plan and the
// database, so registered queries with equal plan keys share one
// incremental.Session, each keeping its own view, ledger and sensitivity
// vector. Every session is opened inside its shard's incremental.PlanStore,
// where sessions of different plans share the relation rows and the
// subtrees they have in common: the open reads what the store holds and
// builds only what it lacks. incremental.PlanStore correctness rests on
// every subscriber being fed the same update sequence, and every session on
// a shard is fed the same stream — every valid batch, round by round — so
// one store per shard is a sound sharing domain.
//
// Only the shard's goroutine opens, detaches and steps its sessions, and it
// opens and detaches them between rounds, when its store is quiescent:
// registrations and drops arrive on the shard's FIFO (shard.go). A session
// stays in the shard's store until its last query is dropped or it fails:
// served sessions take one update at a time (no bulk rebuild), and
// tombstones are compacted in place, table by table
// (incremental.Options.RebuildTombstoneRatio). A propagation error poisons
// the store for all its sessions; the shard then opens new sessions in a
// new store.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tsens/internal/core"
	"tsens/internal/incremental"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// plan is one maintained session and the queries that read it. Owned by its
// shard's goroutine.
type plan struct {
	key     string
	sess    *incremental.Session
	queries []*servedQuery

	// count/res/err are the session's outputs after the last round, read by
	// every query's publish.
	count int64
	res   *core.Result
	err   error
}

// planKey identifies what a session maintains: the atoms, the selections
// (sorted), the decomposition bags and the sorted skip set. It leaves out
// the query's name, so equal joins registered under different IDs share.
func planKey(q *query.Query, opts core.Options) string {
	parts := make([]string, 0, len(q.Atoms)+3)
	for _, a := range q.Atoms {
		parts = append(parts, a.String())
	}
	var sels []string
	for rel, preds := range q.Selections {
		for _, p := range preds {
			sels = append(sels, rel+"."+p.String())
		}
	}
	sort.Strings(sels)
	parts = append(parts, strings.Join(sels, "&"))
	bags := ""
	if d := opts.Decomposition; d != nil {
		bags = fmt.Sprint(d.Bags)
	}
	skip := slices.Clone(opts.SkipRelations)
	sort.Strings(skip)
	return relation.CanonKey(append(parts, bags, strings.Join(skip, ","))...)
}

// register attaches c's query at c.cut, the cut the shard has folded when
// it reaches c: to the session the shard keeps for the query's plan, or to
// one opened from c.snap in the shard's store. It returns the query's first
// view. A query whose open or first view fails is not attached.
func (sh *shard) register(s *Server, c *change) (*View, error) {
	sq := c.sq
	var p *plan
	for _, o := range sh.plans {
		if o.key == sq.key {
			p = o
		}
	}
	fresh := p == nil
	if fresh {
		sess, err := sh.openStore().Open(sq.q, c.snap, s.sessionOptions(sq.sopts))
		if err != nil {
			return nil, err
		}
		p = &plan{key: sq.key, sess: sess}
		p.refresh()
	}
	sq.plan = p
	sq.publish(c.cut, s.opts.DriftFraction)
	first := sq.view.Load()
	if first.Err != nil {
		if fresh {
			p.sess.ReleaseShared()
		}
		return nil, first.Err
	}
	if fresh {
		sh.plans = append(sh.plans, p)
		s.refreshPlanGauges()
	}
	p.queries = append(p.queries, sq)
	return first, nil
}

// drop detaches a query from its plan; the session goes with its last
// query.
func (sh *shard) drop(s *Server, sq *servedQuery) {
	p := sq.plan
	p.queries = slices.DeleteFunc(p.queries, func(o *servedQuery) bool { return o == sq })
	if len(p.queries) > 0 {
		return
	}
	sh.plans = slices.DeleteFunc(sh.plans, func(o *plan) bool { return o == p })
	p.sess.ReleaseShared()
	s.refreshPlanGauges()
}

// openStore returns the store the shard opens new sessions in: its store,
// or a new one in its place once a propagation error has poisoned it. The
// poisoned store's sessions fail at their next update and leave it.
func (sh *shard) openStore() *incremental.PlanStore {
	ps := sh.store.Load()
	if ps.Err() != nil {
		ps = incremental.NewPlanStore()
		sh.store.Store(ps)
	}
	return ps
}

// endRound finishes a round: a session that failed leaves the shard (its
// queries keep their failed views) and its store.
func (sh *shard) endRound(s *Server) {
	changed := false
	sh.plans = slices.DeleteFunc(sh.plans, func(p *plan) bool {
		if p.err == nil {
			return false
		}
		p.sess.ReleaseShared()
		changed = true
		return true
	})
	if changed {
		s.refreshPlanGauges()
	}
}

// refreshPlanGauges re-derives the sharing gauges from every shard's store.
// Called after any attach/detach transition; cheap relative to the
// registration or round that triggered it.
func (s *Server) refreshPlanGauges() {
	var nodes, shared, refs, subs int
	for _, sh := range s.shards {
		st := sh.store.Load().Stats()
		nodes += st.Nodes
		shared += st.SharedNodes
		refs += st.NodeRefs
		subs += st.Subscribers
	}
	s.m.planNodes.Set(float64(nodes))
	s.m.planShared.Set(float64(shared))
	s.m.planRefs.Set(float64(refs))
	s.m.planSubs.Set(float64(subs))
}

// PlanDomainStats is one shard's sharing summary — the stats of its plan
// store — as served at GET /debug/plans.
type PlanDomainStats struct {
	Shard int `json:"shard"`
	incremental.PlanStoreStats
}

// PlanStats summarizes every shard's plan store.
func (s *Server) PlanStats() []PlanDomainStats {
	out := make([]PlanDomainStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = PlanDomainStats{Shard: i, PlanStoreStats: sh.store.Load().Stats()}
	}
	return out
}
