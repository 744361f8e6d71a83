package serve

// Plan stores (docs/SERVING.md "Registration and plan sharing"). Every
// session keeps its maintained tables in an incremental.PlanStore; a
// registered query's session moves from a store of its own into its
// shard's store. incremental.PlanStore correctness rests on every
// subscriber applying the same update sequence, and every session on a
// shard is fed the same stream — every valid batch, round by round — so
// one store per shard is a sound sharing domain.
//
// Attaching and detaching sessions happens only at provably quiescent
// points. Rounds are enqueued exclusively by the coordinator under stateMu,
// and Register/Unregister hold stateMu, so "queue empty and no round in
// flight" observed there is stable for as long as the lock is held — that
// is when Adopt/ReleaseShared run inline. A busy shard adopts and releases
// at the end of the round it was busy with (endRound), after every session
// stepped; endRound also moves a session back into the shard's store after
// a rebuild (a bulk batch or a compaction) left it in a store of its own.

import (
	"tsens/internal/incremental"
)

// idle reports whether the shard has neither queued nor in-flight rounds.
// Stable only while the caller holds stateMu (the coordinator enqueues
// rounds under stateMu, so none can appear underneath it).
func (sh *shard) idle() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.q) == 0 && !sh.applying
}

// install adds a registered query to the shard and moves its session into
// the shard's store: inline when the shard is idle (it has then folded
// every round up to the frontier the session caught up to, so the store is
// quiescent at the session's state), else parked until the end of the
// round whose cut reaches the query's installCut (endRound). Deciding under
// umu and then mu, the order in which endRound adopts and clears applying,
// means a parked session is always adopted by that round. Caller holds
// stateMu.
func (sh *shard) install(s *Server, sq *servedQuery) {
	sh.umu.Lock()
	defer sh.umu.Unlock()
	sq.tried = -1
	if sh.idle() {
		sh.adopt(s, sq)
	}
	sh.queries = append(sh.queries, sq)
}

// adopt moves a query's session into the shard's store, recording the
// session's rebuild count so endRound tries again only after the next
// rebuild. An Adopt that fails (it errors only before touching any state)
// leaves the session in its own store.
func (sh *shard) adopt(s *Server, sq *servedQuery) {
	sq.tried = sq.sess.Rebuilds()
	if _, err := sq.sess.Adopt(sh.store); err != nil {
		s.logger.Warn("serve.plan_adopt_failed", "query", sq.id, "shard", sh.id, "err", err.Error())
	}
}

// retire releases the plan-store subscription of a query Unregister has
// stripped from the shard: inline when the shard is idle, else at the end
// of the round that keeps it busy, which may still step it from its query
// snapshot. Deciding under mu, the lock endRound clears applying under,
// means a query parked here is always collected by that endRound. Caller
// holds stateMu.
func (sh *shard) retire(sq *servedQuery) {
	sh.mu.Lock()
	idle := len(sh.q) == 0 && !sh.applying
	if !idle {
		sh.retired = append(sh.retired, sq)
	}
	sh.mu.Unlock()
	if idle {
		sq.sess.ReleaseShared()
	}
}

// endRound finishes the shard's round at cut. Under umu it moves into the
// shard's store every live session outside it that has not tried since
// its last rebuild: the sessions Register parked, once the cut reaches
// their installCut, and the sessions a rebuild left in a store of their
// own. Rounds are FIFO with monotone cuts and skip a query up to its
// installCut, so every established subscriber has then applied exactly
// the entries the session holds — the quiescent, state-identical moment
// Adopt requires. Still under umu, it clears applying under mu and returns
// the queries retired while the round ran, for the shard to release.
// adopted reports whether any session tried to move.
func (sh *shard) endRound(s *Server, cut int64) (adopted bool, retired []*servedQuery) {
	sh.umu.Lock()
	defer sh.umu.Unlock()
	for _, sq := range sh.queries {
		if sq.err != nil || cut < sq.installCut || sq.sess.Store() == sh.store || sq.tried == sq.sess.Rebuilds() {
			continue
		}
		sh.adopt(s, sq)
		adopted = true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.applying = false
	retired = sh.retired
	sh.retired = nil
	return adopted, retired
}

// planGroups partitions a round's queries into step groups, one per plan
// store: sessions subscribed to the same store patch shared tables and must
// step sequentially (the store's lead/follower memo discipline is
// single-round, not concurrent), while sessions alone in their store keep
// the one-goroutine-per-session fan-out.
func planGroups(sqs []*servedQuery) [][]*servedQuery {
	groups := make([][]*servedQuery, 0, len(sqs))
	byStore := make(map[*incremental.PlanStore]int, len(sqs))
	for _, sq := range sqs {
		st := sq.sess.Store()
		gi, ok := byStore[st]
		if !ok {
			gi = len(groups)
			byStore[st] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], sq)
	}
	return groups
}

// refreshPlanGauges re-derives the sharing gauges from every shard's store.
// Called after any attach/detach transition; cheap relative to the Register
// or round that triggered it.
func (s *Server) refreshPlanGauges() {
	var nodes, shared, refs, subs int
	for _, sh := range s.shards {
		st := sh.store.Stats()
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
		out[i] = PlanDomainStats{Shard: i, PlanStoreStats: sh.store.Stats()}
	}
	return out
}
