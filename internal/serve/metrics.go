package serve

// Metrics of the serving layer. Every instrument lives in one obs.Registry
// (Options.Metrics, or a private one) exposed at GET /metrics in Prometheus
// text and GET /debug/vars as JSON; docs/OBSERVABILITY.md is the catalog.
//
// Progress counters that recovery re-positions (epoch, appended, skipped)
// are gauges SET from the server's authoritative atomics, never
// incremented — so a registry shared across a follower's passive server
// and its promoted successor (the serve command reuses one process-level
// registry) reads correctly at every instant. Work counters (rounds,
// journaled records, releases) and latency histograms are cumulative
// per-process, which is exactly what a scraper wants across a promotion.

import (
	"strconv"

	"tsens/internal/obs"
)

// serverMetrics bundles the serve-layer instruments.
type serverMetrics struct {
	reg *obs.Registry

	epoch    *obs.Gauge // last published consistent cut
	appended *obs.Gauge // acknowledged log LSN
	skipped  *obs.Gauge // refused deletes of absent tuples
	queries  *obs.Gauge // registered queries

	rounds       *obs.Counter      // drain rounds completed
	drainRound   *obs.Histogram    // fold to last shard's finish, queue wait included
	drainBatch   *obs.Histogram    // entries per round
	publishView  *obs.Histogram    // per-shard view publish after a round's patch
	shardPatch   *obs.HistogramVec // per-shard patch latency, label shard
	shardEpoch   *obs.GaugeVec     // per-shard watermark (folded LSN), label shard
	registerSecs *obs.Histogram    // Register end to end
	viewReads    *obs.Counter

	releases *obs.CounterVec // label fresh ("true"/"false")

	// acks counts acknowledged state-changing operations by kind, bumped at
	// the exact point the operation's WAL record (if any) was journaled —
	// the left side of the acked==journaled identity difftest asserts.
	acks       *obs.CounterVec // label kind
	walRecords *obs.CounterVec // journaled WAL records by kind

	epsBudget    *obs.GaugeVec // per-query ε budget (0 = unlimited)
	epsSpent     *obs.GaugeVec // per-query ε spent, == ledger total
	epsRemaining *obs.GaugeVec // per-query ε remaining (budgeted queries)

	planNodes  *obs.Gauge // interned join-tree nodes across all plan stores
	planShared *obs.Gauge // interned nodes with more than one subscriber
	planRefs   *obs.Gauge // total node subscriptions; refs/nodes = mean fan-out
	planSubs   *obs.Gauge // sessions attached to a plan store
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg:      reg,
		epoch:    reg.Gauge("tsens_serve_epoch", "Last published consistent cut (log entries reflected in every view)."),
		appended: reg.Gauge("tsens_serve_appended", "Acknowledged update-log LSN; leads epoch by the pending backlog."),
		skipped:  reg.Gauge("tsens_serve_skipped", "Log entries refused at apply time (deletes of absent tuples)."),
		queries:  reg.Gauge("tsens_serve_queries", "Registered queries."),

		rounds: reg.Counter("tsens_serve_drain_rounds_total", "Drain rounds completed (every shard has folded the round)."),
		drainRound: reg.Histogram("tsens_serve_drain_round_seconds",
			"Drain-round latency: from the fold into the master to the last shard's finish, queue wait included.", nil),
		drainBatch: reg.Histogram("tsens_serve_drain_batch_entries",
			"Log entries folded per drain round.", obs.SizeBuckets),
		publishView: reg.Histogram("tsens_serve_publish_seconds",
			"Per-shard view publish: building and storing the views of a round's queries.", nil),
		shardPatch: reg.HistogramVec("tsens_serve_shard_patch_seconds",
			"Per-shard session patch latency within a round.", nil, "shard"),
		shardEpoch: reg.GaugeVec("tsens_shard_epoch",
			"Per-shard watermark: the LSN through which the shard has folded the log.", "shard"),
		registerSecs: reg.Histogram("tsens_serve_register_seconds",
			"Register end to end: relation copy, wait for the query's shard to attach it (a solve for a new plan), journal.", nil),
		viewReads: reg.Counter("tsens_serve_view_reads_total", "View lookups answered from published epochs."),

		releases: reg.CounterVec("tsens_serve_releases_total",
			"Noisy releases served, by freshness (fresh spends ε, replay does not).", "fresh"),

		acks: reg.CounterVec("tsens_serve_acks_total",
			"Acknowledged state-changing operations by kind.", "kind"),
		walRecords: reg.CounterVec("tsens_wal_records_total",
			"WAL records journaled by kind; equals tsens_serve_acks_total per kind on an active durable server.", "kind"),

		epsBudget:    reg.GaugeVec("tsens_epsilon_budget", "Per-query ε budget (0 means unlimited).", "query"),
		epsSpent:     reg.GaugeVec("tsens_epsilon_spent", "Per-query ε spent; equals the ledger's exported total.", "query"),
		epsRemaining: reg.GaugeVec("tsens_epsilon_remaining", "Per-query ε remaining (budgeted queries only).", "query"),

		planNodes: reg.Gauge("tsens_plan_nodes_total",
			"Interned join-tree nodes across every shared plan store."),
		planShared: reg.Gauge("tsens_plan_nodes_shared",
			"Interned join-tree nodes maintained for more than one query."),
		planRefs: reg.Gauge("tsens_plan_node_refs_total",
			"Total node subscriptions; divided by tsens_plan_nodes_total gives the mean fan-out."),
		planSubs: reg.Gauge("tsens_plan_subscribers",
			"Sessions currently subscribed to a shard's sharing store."),
	}
}

// recKindName maps WAL record kinds to their metric label.
func recKindName(kind byte) string {
	switch kind {
	case recUpdates:
		return "updates"
	case recRegister:
		return "register"
	case recUnregister:
		return "unregister"
	case recRelease:
		return "release"
	}
	return "unknown"
}

// Metrics returns the server's metrics registry (Options.Metrics, or the
// private one the server created). Never nil.
func (s *Server) Metrics() *obs.Registry { return s.m.reg }

// Traces returns the server's trace recorder (Options.Traces, or the
// server-created default).
func (s *Server) Traces() *obs.TraceRecorder { return s.traces }

// ackMetric counts one acknowledged client operation. Recovery replay and
// replicated apply run the same Register/Append/Release code paths but
// acknowledge nothing to a client — their durableLog is not (or not yet)
// appending — so they are excluded. That exclusion is what keeps
// tsens_serve_acks_total == tsens_wal_records_total per kind on a durable
// server: both sides count only this instance's acknowledged operations.
func (s *Server) ackMetric(kind string) {
	if d := s.wal; d == nil || d.log == nil || d.active.Load() {
		s.m.acks.With(kind).Inc()
	}
}

// budgetMetrics refreshes a query's ε gauges from its ledger. Callers that
// race a concurrent Spend merely publish a momentarily stale value; the
// next release or checkpoint refreshes it.
func (s *Server) budgetMetrics(sq *servedQuery) {
	if sq.ledger == nil {
		return
	}
	s.m.epsBudget.With(sq.id).Set(sq.ledger.Budget())
	s.m.epsSpent.With(sq.id).Set(sq.ledger.Spent())
	if rem, ok := sq.ledger.Remaining(); ok {
		s.m.epsRemaining.With(sq.id).Set(rem)
	}
}

// dropQueryMetrics removes a query's labeled series at Unregister.
func (s *Server) dropQueryMetrics(id string) {
	s.m.epsBudget.Delete(id)
	s.m.epsSpent.Delete(id)
	s.m.epsRemaining.Delete(id)
}

func shardLabel(i int) string { return strconv.Itoa(i) }
