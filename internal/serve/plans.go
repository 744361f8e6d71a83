package serve

// Plan stores (docs/SERVING.md "Registration and plan sharing"). Every
// session keeps its maintained tables in an incremental.PlanStore; a
// registered unit moves from a store of its own into one of its shard's
// two sharing domains, one per update stream the shard feeds:
//
//   - partitioned units receive the shard's routed slice of every round, so
//     partitioned sessions on the same shard see identical streams and may
//     hash-cons join-tree state with each other;
//   - fallback (unpartitionable) units receive the whole valid batch, a
//     different stream, so they share only among themselves.
//
// The two domains are never mixed: incremental.PlanStore correctness rests
// on every subscriber applying the same update sequence, and a store that
// spanned both streams would desynchronize its lead/follower cursors.
//
// Attaching and detaching sessions happens only at provably quiescent
// points. Rounds are enqueued exclusively by the coordinator under stateMu,
// and Register/Unregister hold stateMu, so "queue empty and no round in
// flight" observed there is stable for as long as the lock is held — that
// is when Adopt/ReleaseShared run inline. A busy shard adopts and releases
// at the end of the round it was busy with (endRound), after every unit
// stepped; endRound also moves a unit back into its domain after a rebuild
// (a bulk batch or a compaction) left it in a store of its own.

import (
	"tsens/internal/incremental"
)

// planDomain is one shard's pair of sharing domains.
type planDomain struct {
	part *incremental.PlanStore // partitioned units: fed this shard's routed slices
	fall *incremental.PlanStore // fallback units: fed every whole valid batch
}

func newPlanDomains(n int) []*planDomain {
	out := make([]*planDomain, n)
	for i := range out {
		out[i] = &planDomain{part: incremental.NewPlanStore(), fall: incremental.NewPlanStore()}
	}
	return out
}

// storeFor picks the sharing domain a unit belongs to.
func (s *Server) storeFor(u *unit) *incremental.PlanStore {
	d := s.plans[u.shard]
	if u.part >= 0 {
		return d.part
	}
	return d.fall
}

// idle reports whether the shard has neither queued nor in-flight rounds.
// Stable only while the caller holds stateMu (the coordinator enqueues
// rounds under stateMu, so none can appear underneath it).
func (sh *shard) idle() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.q) == 0 && !sh.applying
}

// install adds a registered unit to the shard and moves its session into
// its sharing domain: inline when the shard is idle (it has then folded
// every round up to the frontier the unit caught up to, so the store is
// quiescent at the unit's state), else parked until the end of the round
// whose cut reaches the unit's installCut (endRound). Deciding under umu
// and then mu, the order in which endRound adopts and clears applying,
// means a parked unit is always adopted by that round. Caller holds
// stateMu.
func (sh *shard) install(s *Server, u *unit) {
	sh.umu.Lock()
	defer sh.umu.Unlock()
	u.tried = -1
	if sh.idle() {
		s.adopt(u)
	}
	sh.units = append(sh.units, u)
}

// adopt moves a unit's session into its sharing domain, recording the
// session's rebuild count so endRound tries again only after the next
// rebuild. An Adopt that fails (it errors only before touching any state)
// leaves the session in its own store.
func (s *Server) adopt(u *unit) {
	u.tried = u.sess.Rebuilds()
	if _, err := u.sess.Adopt(s.storeFor(u)); err != nil {
		s.logger.Warn("serve.plan_adopt_failed", "query", u.sq.id, "shard", u.shard, "err", err.Error())
	}
}

// retire releases the plan-store subscriptions of units Unregister has
// stripped from the shard: inline when the shard is idle, else at the end
// of the round that keeps it busy, which may still step them from its unit
// snapshot. Deciding under mu, the lock endRound clears applying under,
// means a unit parked here is always collected by that endRound. Caller
// holds stateMu.
func (sh *shard) retire(units []*unit) {
	sh.mu.Lock()
	idle := len(sh.q) == 0 && !sh.applying
	if !idle {
		sh.retired = append(sh.retired, units...)
	}
	sh.mu.Unlock()
	if idle {
		releaseUnits(units)
	}
}

// endRound finishes the shard's round at cut. Under umu it moves into its
// sharing domain every live unit outside it that has not tried since its
// last rebuild: the units Register parked, once the cut reaches their
// installCut, and the units a rebuild left in a store of their own. Rounds
// are FIFO with monotone cuts and skip a unit up to its installCut, so every
// established subscriber has then applied exactly the entries the unit
// holds — the quiescent, state-identical moment Adopt requires. Still under
// umu, it clears applying under mu and returns the units retired while the
// round ran, for the shard to release. adopted reports whether any unit
// tried to move.
func (sh *shard) endRound(s *Server, cut int64) (adopted bool, retired []*unit) {
	sh.umu.Lock()
	defer sh.umu.Unlock()
	for _, u := range sh.units {
		if u.err != nil || cut < u.installCut || u.sess.Store() == s.storeFor(u) || u.tried == u.sess.Rebuilds() {
			continue
		}
		s.adopt(u)
		adopted = true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.applying = false
	retired = sh.retired
	sh.retired = nil
	return adopted, retired
}

// releaseUnits detaches retired units from their plan stores.
func releaseUnits(units []*unit) {
	for _, u := range units {
		u.sess.ReleaseShared()
	}
}

// planGroups partitions a round's units into step groups, one per plan
// store: units subscribed to the same store patch shared tables and must
// step sequentially (the store's lead/follower memo discipline is
// single-round, not concurrent), while units alone in their store keep the
// one-goroutine-per-unit fan-out.
func planGroups(units []*unit) [][]*unit {
	groups := make([][]*unit, 0, len(units))
	byStore := make(map[*incremental.PlanStore]int, len(units))
	for _, u := range units {
		st := u.sess.Store()
		gi, ok := byStore[st]
		if !ok {
			gi = len(groups)
			byStore[st] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], u)
	}
	return groups
}

// refreshPlanGauges re-derives the sharing gauges from every domain store.
// Called after any attach/detach transition; cheap relative to the Register
// or round that triggered it.
func (s *Server) refreshPlanGauges() {
	var nodes, shared, refs, subs int
	for _, d := range s.plans {
		for _, ps := range [2]*incremental.PlanStore{d.part, d.fall} {
			st := ps.Stats()
			nodes += st.Nodes
			shared += st.SharedNodes
			refs += st.NodeRefs
			subs += st.Subscribers
		}
	}
	s.m.planNodes.Set(float64(nodes))
	s.m.planShared.Set(float64(shared))
	s.m.planRefs.Set(float64(refs))
	s.m.planSubs.Set(float64(subs))
}

// PlanDomainStats is one shard's sharing summary, as served at
// GET /debug/plans.
type PlanDomainStats struct {
	Shard       int                        `json:"shard"`
	Partitioned incremental.PlanStoreStats `json:"partitioned"`
	Fallback    incremental.PlanStoreStats `json:"fallback"`
}

// PlanStats summarizes every shard's sharing domains.
func (s *Server) PlanStats() []PlanDomainStats {
	out := make([]PlanDomainStats, len(s.plans))
	for i, d := range s.plans {
		out[i] = PlanDomainStats{Shard: i, Partitioned: d.part.Stats(), Fallback: d.fall.Stats()}
	}
	return out
}
