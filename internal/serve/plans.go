package serve

// Shared subplan stores (Options.SharedPlans, docs/SERVING.md "Registration
// and plan sharing"). Each shard owns two sharing domains, one per update
// stream it feeds:
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
// is when Adopt/ReleaseShared run inline. A busy shard adopts at the top of
// a later round (processTransitions), before any unit steps, and releases
// at the end of the round it was busy with (endRound), after every unit
// stepped.

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

// storeFor picks the sharing domain a unit belongs to, nil when sharing is
// off.
func (s *Server) storeFor(u *unit) *incremental.PlanStore {
	if !s.sharedPlans {
		return nil
	}
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

// retire releases the shared-plan subscriptions of units Unregister has
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

// endRound marks the shard's round finished and returns the units retired
// while it ran, for the shard to release.
func (sh *shard) endRound() []*unit {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.applying = false
	retired := sh.retired
	sh.retired = nil
	return retired
}

// releaseUnits detaches retired units from their plan stores; a unit that
// never attached is a no-op.
func releaseUnits(units []*unit) {
	for _, u := range units {
		u.sess.ReleaseShared()
	}
}

// processTransitions runs at the top of a round, before the unit snapshot
// and any stepping. It adopts units Register installed while the shard was
// busy. Adoption waits for the first round strictly
// past the unit's installCut: rounds are FIFO with monotone cuts, so at
// that point every established subscriber has applied exactly the entries
// the newcomer replayed during catch-up — the quiescent, state-identical
// moment Adopt requires. An Adopt that fails (it errors only before
// touching any state) just leaves the unit on its private plan.
//
// The whole transition runs under umu: store/pendingStore hand-offs must be
// atomic against a concurrent Unregister stripping the unit, which takes
// umu before retiring it.
func (sh *shard) processTransitions(s *Server, cut int64) {
	sh.umu.Lock()
	changed := false
	for _, u := range sh.units {
		if u.pendingStore == nil || cut <= u.installCut {
			continue
		}
		store := u.pendingStore
		u.pendingStore = nil
		changed = true
		if u.err != nil {
			continue
		}
		if _, err := u.sess.Adopt(store); err != nil {
			s.logger.Warn("serve.plan_adopt_deferred_failed",
				"query", u.sq.id, "shard", sh.id, "err", err.Error())
			continue
		}
		u.store = store
	}
	sh.umu.Unlock()
	if changed {
		s.refreshPlanGauges()
	}
}

// planGroups partitions a round's units into step groups: units subscribed
// to the same plan store patch shared tables and must step sequentially
// (the store's lead/follower memo discipline is single-round, not
// concurrent), while everything else keeps the one-goroutine-per-unit
// fan-out.
func planGroups(units []*unit) [][]*unit {
	groups := make([][]*unit, 0, len(units))
	var byStore map[*incremental.PlanStore]int
	for _, u := range units {
		if u.store == nil {
			groups = append(groups, []*unit{u})
			continue
		}
		if byStore == nil {
			byStore = make(map[*incremental.PlanStore]int)
		}
		gi, ok := byStore[u.store]
		if !ok {
			gi = len(groups)
			byStore[u.store] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], u)
	}
	return groups
}

// refreshPlanGauges re-derives the sharing gauges from every store. Called
// after any attach/detach transition; cheap relative to the Register or
// round that triggered it.
func (s *Server) refreshPlanGauges() {
	if !s.sharedPlans {
		return
	}
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

// PlanStats summarizes every shard's plan stores; nil when sharing is off.
func (s *Server) PlanStats() []PlanDomainStats {
	if !s.sharedPlans {
		return nil
	}
	out := make([]PlanDomainStats, len(s.plans))
	for i, d := range s.plans {
		out[i] = PlanDomainStats{Shard: i, Partitioned: d.part.Stats(), Fallback: d.fall.Stats()}
	}
	return out
}
