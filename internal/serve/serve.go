// Package serve implements a long-lived differentially-private query server
// over one logical database, the traffic-serving regime of the roadmap: many
// registered counting queries, each backed by incremental session state
// (internal/incremental), multiplexed over a shared snapshot plus an
// append-only update log behind a sharded-writer/multi-reader boundary.
//
// Architecture (docs/SERVING.md has the full treatment):
//
//   - The Server owns a master copy of the database and an append-only log
//     of single-tuple updates. Append validates an update against the static
//     schema and enqueues it; nothing else happens on the caller.
//   - The write path is sharded (Options.Shards): registered queries with
//     equal plan keys share one incremental session, owned by a designated
//     shard (a hash of the plan key), and each shard owns a writer goroutine
//     plus the sessions of its queries (shard.go). A coordinator goroutine
//     drains the log in batches, folds each batch into the master rows, and
//     hands every shard the same round. Each shard drains its queue of
//     rounds at its own pace and, after each round, stores every owned
//     query's new view (count, LS result, and a drift-gated sensitivity
//     snapshot) behind the query's atomic pointer, so one stalled shard
//     delays only the queries it owns.
//   - A read is one atomic load of that view, which always describes one
//     exact cut of the log. Readers never take the writer's lock, so they
//     are never blocked on a session patch; a release adds only a ledger
//     debit.
//
// The epoch of the server is the number of log entries every shard has
// folded (the joined cut of the per-shard watermarks); views carry the
// cut they were built at, so every answer is exact for that cut
// (linearizability at epoch granularity — the property
// TestServeConcurrentReaders and internal/serve/difftest assert).
//
// Registration happens at a shard's round boundary: Register copies the
// relations the query reads at the fold frontier and queues the
// registration on its shard's FIFO behind the rounds folded so far; the
// shard attaches the query there, to its plan's session or to a new one
// opened from the copy, so nothing needs catching up.
//
// Privacy releases go through mechanism.Release over the view's sensitivity
// snapshot and spend ε from a per-query Ledger; answers replay free of
// charge while the count has not drifted, mirroring StreamingTSensDP (and
// inheriting its caveat: release *timing* is data-dependent).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/core"
	"tsens/internal/incremental"
	"tsens/internal/mechanism"
	"tsens/internal/obs"
	"tsens/internal/par"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/serve/wal"
)

// ErrNoQuery reports a request against an unregistered query ID.
var ErrNoQuery = errors.New("serve: no such query")

// errClosed refuses a state change on a closed or closing server.
var errClosed = errors.New("serve: server closed")

// ErrFenced reports a write refused because the server lost its claim to
// leadership (replication failover demoted it). A fenced server keeps
// serving reads from its published views but never acknowledges another
// state change — the fencing half of the ε-single-writer rule.
var ErrFenced = errors.New("serve: fenced: leadership lost")

// DefaultBatchSize bounds how many log entries one drain round folds into a
// single cut. Sessions apply a round one update at a time whatever its
// size; the batch size sets how often views are published.
const DefaultBatchSize = 32

// DefaultDriftFraction gates sensitivity-snapshot refreshes: the writer
// recomputes a query's per-tuple sensitivity vector only when |Q(D)| has
// drifted by this fraction since the snapshot was taken.
const DefaultDriftFraction = 0.1

// DefaultRebuildTombstoneRatio is the per-table tombstone watermark the
// server sets on every session it opens (see
// incremental.Options.RebuildTombstoneRatio): a maintained table is
// compacted in place once more than a quarter of its rows are tombstones.
const DefaultRebuildTombstoneRatio = 0.25

// DefaultMaxShards caps the GOMAXPROCS-derived default shard count.
const DefaultMaxShards = 8

// Options configures a Server.
type Options struct {
	// Parallelism bounds the parallelism of each session's open (the
	// one-shot solver passes). 0 means GOMAXPROCS.
	Parallelism int
	// Pool supplies worker goroutines; nil makes the server own one sized
	// to Parallelism (closed by Close).
	Pool *par.Pool
	// BatchSize caps log entries per epoch. 0 means DefaultBatchSize.
	BatchSize int
	// DriftFraction gates sensitivity-snapshot refreshes. 0 means
	// DefaultDriftFraction; negative refreshes every epoch.
	DriftFraction float64
	// Shards is the number of write-path shards (per-shard writer
	// goroutines; see shard.go). 0 means min(GOMAXPROCS, DefaultMaxShards);
	// 1 restores the single-writer pipeline.
	Shards int
	// WALDir, when non-empty, makes the server durable: every Append,
	// Register/Unregister, and fresh ε-spend is journaled to a write-ahead
	// log there before it is acknowledged, and periodic checkpoints bound
	// recovery replay (durable.go; docs/SERVING.md "Durability"). New
	// recovers an existing directory — registered queries, their epochs,
	// and their exact spent ε come back — and seeds a fresh one with an
	// initial checkpoint, after which the directory alone suffices to
	// restart (the db argument may then be nil).
	WALDir string
	// SyncEvery is the WAL fsync cadence in records: 1 (the default) syncs
	// before every acknowledgment — the only setting under which an
	// acknowledged write survives an arbitrary crash — while larger values
	// batch fsyncs and bound loss to the unsynced suffix.
	SyncEvery int
	// CheckpointEvery is the number of drained log entries between
	// checkpoint captures. 0 means DefaultCheckpointEvery; negative
	// checkpoints only at boot and graceful Close.
	CheckpointEvery int
	// WALCodec renders tuple values to their durable textual form (and
	// re-encodes them on recovery). nil means IntCodec; pass the csvio
	// loader of the snapshot so string-valued data round-trips through one
	// dictionary.
	WALCodec Codec
	// WALFS substitutes the filesystem the WAL runs on. nil means the real
	// OS; the fault-injection harness (internal/serve/faultfs) passes an FS
	// that can fail fsyncs and simulate machine crashes.
	WALFS wal.FS
	// Metrics is the registry every layer of the server records into
	// (drain rounds, shard patches, WAL timings, session timings, ε
	// gauges); exposed at GET /metrics and GET /debug/vars by the HTTP API.
	// nil makes the server create a private one (Server.Metrics returns
	// it). Pass one process-level registry when several servers share a
	// process — a replication follower's passive server and its promoted
	// successor, for instance — so the scrape endpoint survives the swap.
	Metrics *obs.Registry
	// Debug opts into the pprof handlers (GET /debug/pprof/*) on the HTTP
	// API. Off by default: profiles expose operational detail the public
	// serving surface should not.
	Debug bool
	// Traces collects completed request traces (obs.TraceRecorder): every
	// appended batch is traced from ingress through WAL append/fsync and
	// the drain round until the last shard has folded it, and served at GET /debug/traces. nil makes the server create its own
	// over Metrics. Pass one process-level recorder when several servers
	// share a process (follower resets, promotion), mirroring Metrics.
	Traces *obs.TraceRecorder
	// SlowThreshold marks traces slow (always kept by the recorder) and
	// gates the slow-query log: any drain round or release over it logs
	// one structured line with its trace breakdown. 0 means
	// obs.DefaultSlowThreshold.
	SlowThreshold time.Duration
	// Logger receives the server's structured log lines (obs.Logger).
	// nil disables logging — every log site is nil-safe.
	Logger *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.DriftFraction == 0 {
		o.DriftFraction = DefaultDriftFraction
	}
	if o.Shards == 0 {
		o.Shards = par.N(0)
		if o.Shards > DefaultMaxShards {
			o.Shards = DefaultMaxShards
		}
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = obs.DefaultSlowThreshold
	}
	if o.Traces == nil {
		o.Traces = obs.NewTraceRecorder(o.Metrics, 0, o.SlowThreshold)
	}
	return o
}

// QueryConfig registers one counting query with the server.
type QueryConfig struct {
	// ID names the query in the API; empty generates one.
	ID string
	// Query is the parsed conjunctive counting query.
	Query *query.Query
	// Options carries the solver options (GHD decomposition for cyclic
	// queries, skip list). Parallelism and Pool are overridden by the
	// server's own.
	Options core.Options
	// Private names the primary private relation for DP releases; empty
	// disables the release endpoint for this query.
	Private string
	// Release parameterizes TSensDP releases (required when Private is
	// set: Epsilon and Bound must be positive).
	Release mechanism.TSensDPConfig
	// Budget is the total ε this query may spend across fresh releases;
	// 0 means unlimited.
	Budget float64
	// Drift is the replay gate: answers replay (spending nothing) while
	// |Q(D)| stays within this fraction of the last released count. 0
	// means DefaultDriftFraction.
	Drift float64
}

// View is one published epoch of one query: everything a reader needs,
// immutable once published. Every view is one exact cut of the log — the
// query's session had applied exactly the first Epoch entries — and a
// query's views never move backwards. A query's first view (the one
// Register returns) is taken at the fold frontier when it registered, so
// it may be ahead of the joined cut (Server.Epoch) until every other shard
// catches up.
type View struct {
	// Epoch is the cut (log entries applied) this view reflects.
	Epoch int64
	// Count is |Q(D)| at Epoch.
	Count int64
	// LS is the full local-sensitivity result at Epoch.
	LS *core.Result
	// Sens is the sorted per-tuple sensitivity vector of the private
	// relation, taken at SensEpoch (≤ Epoch; refreshed when the count
	// drifts, and shared by consecutive views until then). Nil when the
	// query has no private relation. Treat as read-only — releases copy
	// it.
	Sens      []int64
	SensEpoch int64
	// SensCount is |Q(D)| at SensEpoch, the drift baseline.
	SensCount int64
	// Err, when non-nil, marks the query failed: a session could not
	// absorb an update batch and stopped being maintained.
	Err error
}

// ReleaseResult is the outcome of one noisy-release request.
type ReleaseResult struct {
	// Epoch and SensEpoch locate the answer: the release reads the
	// sensitivity snapshot of SensEpoch, served at Epoch.
	Epoch     int64
	SensEpoch int64
	// Fresh reports whether ε was spent (true) or the cached release was
	// replayed (false).
	Fresh bool
	// Run is the mechanism execution (Noisy is the released value).
	Run *mechanism.Run
	// Spent is the ε debited by this call; TotalSpent the query's running
	// sum. Remaining is meaningful only when HasBudget.
	Spent      float64
	TotalSpent float64
	Remaining  float64
	HasBudget  bool
}

// QueryInfo summarizes one registered query for listings.
type QueryInfo struct {
	ID       string
	Query    string
	Private  string
	Epoch    int64
	Count    int64
	LS       int64
	Budget   float64
	Spent    float64
	Releases int
	Failed   bool
}

// Stats summarizes the server.
type Stats struct {
	// Epoch is the last published consistent cut: the number of log
	// entries folded by every shard and reflected in the views.
	Epoch int64
	// Appended is the number of log entries accepted so far; Epoch lags it
	// by the pending backlog.
	Appended int64
	// Skipped counts log entries the coordinator refused at apply time
	// (deletes of absent tuples).
	Skipped int64
	// Queries is the number of registered queries.
	Queries int
	// Shards is the number of write-path shards; Watermarks[i] is the LSN
	// through which shard i has folded the log (each ≥ Epoch while a round
	// is in flight, = Epoch at rest). The watermarks are the
	// authoritative frontier — Epoch is their join.
	Shards     int
	Watermarks []int64
	// WAL reports whether the server is durable (Options.WALDir);
	// DurableEpoch is then the epoch covered by the last installed
	// checkpoint (recovery replays the WAL tail past it).
	WAL          bool
	DurableEpoch int64
}

// servedQuery is the per-query state. The owning shard steps the query's
// plan and publishes the views; readers load the latest view and share the
// release cache under relMu.
type servedQuery struct {
	id      string
	text    string
	q       *query.Query
	key     string // planKey: queries with equal keys share one session
	shard   int
	private string
	cfg     mechanism.TSensDPConfig
	sopts   core.Options // solver options as registered (for journaling)
	drift   float64
	ledger  *mechanism.Ledger

	// plan is the session the query reads, set by the owning shard when it
	// attaches the query.
	plan *plan

	// view is the latest published view, stored only by the owning shard.
	view atomic.Pointer[View]

	relMu     sync.Mutex // release replay cache; never held by writers
	lastRun   *mechanism.Run
	lastCount int64
	releases  int
}

// Server is the long-lived serving process. See the package comment for the
// locking discipline; in short: logMu guards the log, stateMu guards the
// master database, the registration sequence, and the order of the shard
// FIFOs (coordinator rounds, Register, Unregister), each shard's goroutine
// alone touches its sessions, and readers touch none of these. Lock order
// is stateMu before logMu.
type Server struct {
	opts     Options
	pool     *par.Pool
	ownsPool bool
	m        *serverMetrics

	// traces and logger are the request-tracing surfaces (Options.Traces /
	// Options.Logger); traceLog runs parallel to log, holding each entry's
	// in-flight trace (nil for untraced entries, e.g. recovery replay) so
	// the drain round can stamp its stages onto the traces it folds.
	traces *obs.TraceRecorder
	logger *obs.Logger

	logMu    sync.Mutex
	logCond  *sync.Cond
	log      []relation.Update
	traceLog []*obs.ActiveTrace
	logBase  int64 // absolute log sequence number of log[0]
	closed   bool  // CloseNow: stop immediately, abandon the backlog
	drain    bool  // Close: refuse new appends, drain the backlog, then stop

	// wal is the durability glue (nil without Options.WALDir): journaled
	// appends/registrations/spends and the checkpoint writer (durable.go).
	wal *durableLog

	stateMu  sync.Mutex
	master   *relation.Database
	rowpos   map[string]*relation.RowSet
	nextID   int
	regSeq   int64           // journaled registration sequence (durable.go)
	reserved map[string]bool // IDs mid-registration (queued on a shard)

	qmu     sync.RWMutex
	queries map[string]*servedQuery

	shards []*shard

	epoch    atomic.Int64
	appended atomic.Int64
	skipped  atomic.Int64

	// frontier is the fold frontier: the LSN through which the coordinator
	// has folded the log into the master rows (and enqueued rounds). Under
	// stateMu the master always reflects exactly frontier, which may lead
	// epoch, the joined cut the shards have reached.
	frontier atomic.Int64

	// epochGaugeMu serializes refreshing the epoch gauge against the
	// shards' racing epoch CASes: a shard that wins the CAS but is
	// preempted before the gauge write must not later clobber a newer value,
	// so writers re-load the epoch under this mutex before setting it.
	epochGaugeMu sync.Mutex

	// fence, once set, makes every state-changing entry point fail with the
	// stored error (reads keep answering). Set by the replication layer when
	// this process loses its lease — see Fence.
	fence atomic.Pointer[error]

	waitMu  sync.Mutex
	epochCh chan struct{}

	done chan struct{}
	wg   sync.WaitGroup
}

// New starts a server over a private copy of db. Close it when done.
//
// With Options.WALDir set the server is durable: a fresh directory is
// seeded with a checkpoint of db, an existing one is recovered — every
// registered query comes back at its exact epoch with its exact spent ε,
// and acknowledged appends are never lost. On recovery db is ignored (and
// may be nil): the WAL directory is the authoritative state.
func New(db *relation.Database, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.WALDir != "" {
		return openDurable(db, opts)
	}
	if db == nil {
		return nil, fmt.Errorf("serve: nil database")
	}
	return newServer(db.Clone(), opts, serverInit{}, nil)
}

// serverInit carries recovered counters into newServer: the epoch the
// master rows describe (log entries already folded into them) and the skip
// count accumulated getting there.
type serverInit struct {
	epoch   int64
	skipped int64
}

// newServer assembles and starts a server around master (ownership
// transfers; callers clone). init positions the log counters for recovery;
// dl, when non-nil, attaches the WAL before any goroutine starts.
func newServer(master *relation.Database, opts Options, init serverInit, dl *durableLog) (*Server, error) {
	s := &Server{
		opts:     opts,
		master:   master,
		wal:      dl,
		logBase:  init.epoch,
		queries:  make(map[string]*servedQuery),
		reserved: make(map[string]bool),
		epochCh:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.traces = opts.Traces
	s.logger = opts.Logger
	s.epoch.Store(init.epoch)
	s.frontier.Store(init.epoch)
	s.appended.Store(init.epoch)
	s.skipped.Store(init.skipped)
	s.m = newServerMetrics(opts.Metrics)
	s.m.epoch.Set(float64(init.epoch))
	s.m.appended.Set(float64(init.epoch))
	s.m.skipped.Set(float64(init.skipped))
	s.m.queries.Set(0)
	if dl != nil {
		dl.m = s.m
	}
	s.logCond = sync.NewCond(&s.logMu)
	s.rowpos = make(map[string]*relation.RowSet, len(s.master.Names()))
	for _, name := range s.master.Names() {
		s.rowpos[name] = relation.NewRowSet(s.master.Relation(name))
	}
	if opts.Pool != nil {
		s.pool = opts.Pool
	} else {
		s.pool = par.NewPool(opts.Parallelism)
		s.ownsPool = true
	}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		sh := &shard{id: i, patch: s.m.shardPatch.With(shardLabel(i))}
		sh.store.Store(incremental.NewPlanStore())
		sh.cond = sync.NewCond(&sh.mu)
		sh.watermark.Store(init.epoch)
		s.m.shardEpoch.With(shardLabel(i)).Set(float64(init.epoch))
		s.shards[i] = sh
	}
	s.wg.Add(1 + len(s.shards))
	go s.writer()
	for _, sh := range s.shards {
		go sh.run(s)
	}
	if dl != nil {
		go func() {
			defer close(dl.ckptDone)
			for ck := range dl.ckptCh {
				// Best-effort: a failed periodic write leaves the previous
				// checkpoint in place and the uncovered segments unpruned —
				// recovery just replays a longer tail.
				_ = s.writeCheckpoint(ck)
			}
		}()
	}
	return s, nil
}

// Close stops the server gracefully: new appends are refused, the already
// acknowledged backlog is drained through the shards to a consistent cut
// (so an Append that returned success is never lost by a clean shutdown),
// a final checkpoint is written when durable, and the owned pool is
// released. Reads keep answering from the last published views. Use
// CloseNow to abandon the backlog instead.
func (s *Server) Close() { s.close(false) }

// CloseNow stops the coordinator and the shard writers immediately,
// abandoning appended-but-undrained log entries — the pre-durability Close
// behavior, and the crash stand-in the recovery tests kill servers with.
// With a WAL attached the abandoned entries are still on disk: a restart
// recovers and folds them.
func (s *Server) CloseNow() { s.close(true) }

func (s *Server) close(now bool) {
	s.logMu.Lock()
	if s.closed || s.drain {
		s.logMu.Unlock()
		return
	}
	if now {
		s.closed = true
	} else {
		s.drain = true
	}
	s.logCond.Broadcast()
	s.logMu.Unlock()
	close(s.done)
	s.wg.Wait()
	if s.wal != nil {
		close(s.wal.ckptCh)
		<-s.wal.ckptDone
		if !now && s.wal.enabled() {
			_ = s.checkpointSync()
		}
		_ = s.wal.log.Close()
	}
	if s.ownsPool {
		s.pool.Close()
	}
	s.waitMu.Lock()
	close(s.epochCh) // wake WaitApplied waiters for their closed-check
	s.epochCh = nil
	s.waitMu.Unlock()
}

// Fence permanently demotes the server: every subsequent Append, Register,
// Unregister, and Release fails with an error wrapping ErrFenced (reason,
// when non-nil, is attached), while reads keep serving the last published
// views. The replication layer fences a leader the moment it can no longer
// prove it holds the lease, so a promoted successor and a demoted
// predecessor can never both acknowledge writes — in particular never both
// spend from the same ε-ledger.
// Fencing also wakes parked WaitApplied waiters: a client waiting for an
// epoch on a just-demoted leader gets the fence error immediately instead
// of hanging to its own deadline. A waiter whose target was already
// reached still succeeds (the reached check runs first); one fenced
// mid-wait fails even if the remaining backlog would eventually drain —
// the caller should re-resolve the leader anyway.
func (s *Server) Fence(reason error) {
	err := ErrFenced
	if reason != nil {
		err = fmt.Errorf("%w: %v", ErrFenced, reason)
	}
	s.fence.CompareAndSwap(nil, &err) // first demotion wins; never unfence
	s.notify()                        // wake waiters so they observe the fence
}

func (s *Server) fenced() error {
	if p := s.fence.Load(); p != nil {
		return *p
	}
	return nil
}

// Register adds cfg.Query to the multiplexer and returns its first view.
// Under the state lock it reserves the ID, copies the relations the query
// reads at the fold frontier, and queues the registration on the FIFO of
// the query's shard, behind exactly the rounds folded so far. The shard
// reaches it at that cut: it attaches the query to the session it keeps
// for the query's plan, or opens one from the copy, and publishes the first
// view. Register waits for the shard, so a stalled shard stalls the
// registrations it owns; then it journals the registration and makes the
// query visible.
func (s *Server) Register(cfg QueryConfig) (string, *View, error) {
	if err := s.fenced(); err != nil {
		return "", nil, err
	}
	defer s.m.reg.Span("serve.register", s.m.registerSecs)()
	if cfg.Query == nil {
		return "", nil, fmt.Errorf("serve: nil query")
	}
	if cfg.Options.TopK > 0 {
		return "", nil, fmt.Errorf("serve: sessions require exact mode (TopK=0)")
	}
	var ledger *mechanism.Ledger
	if cfg.Private != "" {
		if _, ok := cfg.Query.Atom(cfg.Private); !ok {
			return "", nil, fmt.Errorf("serve: private relation %q is not an atom of the query", cfg.Private)
		}
		var err error
		if ledger, err = mechanism.NewLedger(cfg.Budget); err != nil {
			return "", nil, err
		}
		if err := cfg.Release.Validate(); err != nil {
			return "", nil, fmt.Errorf("serve: release config: %w", err)
		}
	}
	if cfg.Drift == 0 {
		cfg.Drift = DefaultDriftFraction
	}
	sq := &servedQuery{
		text:    cfg.Query.String(),
		q:       cfg.Query,
		key:     planKey(cfg.Query, cfg.Options),
		private: cfg.Private,
		cfg:     cfg.Release,
		sopts:   cfg.Options,
		drift:   cfg.Drift,
		ledger:  ledger,
	}
	sq.shard = s.keyShard(sq.key)

	s.stateMu.Lock()
	id := cfg.ID
	if id == "" {
		for {
			s.nextID++
			id = fmt.Sprintf("q%d", s.nextID)
			if _, taken := s.queries[id]; !taken && !s.reserved[id] {
				break
			}
		}
	} else if _, dup := s.queries[id]; dup || s.reserved[id] {
		s.stateMu.Unlock()
		return "", nil, fmt.Errorf("serve: query %q already registered", id)
	}
	s.reserved[id] = true
	sq.id = id
	c := s.queueChange(sq, s.snapshot(cfg.Query))
	s.stateMu.Unlock()
	<-c.done

	s.stateMu.Lock()
	delete(s.reserved, id)
	if c.err != nil {
		s.stateMu.Unlock()
		return "", nil, c.err
	}
	// Journal the registration before it becomes visible, so a crash after
	// a successful Register always recovers the query (and a crash before
	// the record is durable recovers a server that never acknowledged it).
	// The record, regSeq and s.queries change under one stateMu hold, so a
	// checkpoint never records a regSeq whose query it lacks.
	if s.wal.enabled() {
		if err := s.wal.appendJSON(recRegister, registerRecord{Seq: s.regSeq + 1, Config: sq.configJSON()}); err != nil {
			drop := s.queueChange(sq, nil) // the shard attached it: detach
			s.stateMu.Unlock()
			<-drop.done
			return "", nil, err
		}
		s.regSeq++
	}
	s.ackMetric("register")
	s.qmu.Lock()
	s.queries[id] = sq
	s.m.queries.Set(float64(len(s.queries)))
	s.qmu.Unlock()
	s.stateMu.Unlock()
	s.budgetMetrics(sq)
	return id, c.first, nil
}

// Unregister removes a query, once its shard has detached it. The query's
// session goes with the last query reading it.
func (s *Server) Unregister(id string) error {
	if err := s.fenced(); err != nil {
		return err
	}
	s.stateMu.Lock()
	s.qmu.Lock()
	sq, ok := s.queries[id]
	if !ok {
		s.qmu.Unlock()
		s.stateMu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoQuery, id)
	}
	if s.wal.enabled() {
		if err := s.wal.appendJSON(recUnregister, unregisterRecord{Seq: s.regSeq + 1, ID: id}); err != nil {
			s.qmu.Unlock()
			s.stateMu.Unlock()
			return err
		}
		s.regSeq++
	}
	s.ackMetric("unregister")
	delete(s.queries, id)
	s.m.queries.Set(float64(len(s.queries)))
	s.qmu.Unlock()
	s.dropQueryMetrics(id)
	c := s.queueChange(sq, nil)
	s.stateMu.Unlock()
	<-c.done // a closed server refuses the drop; its sessions go with it
	return nil
}

// queueChange puts the registration (snap set) or drop of sq on the FIFO of
// sq's shard. The caller holds stateMu, under which the coordinator folds
// and enqueues rounds, so the change sits right behind the round whose cut
// is the fold frontier. Wait on done outside stateMu: a shard that is busy
// or stalled would otherwise stall the coordinator too.
func (s *Server) queueChange(sq *servedQuery, snap *relation.Database) *change {
	c := &change{sq: sq, snap: snap, cut: s.frontier.Load(), done: make(chan struct{})}
	if !s.shards[sq.shard].enqueue(task{ch: c}) {
		c.err = errClosed
		close(c.done)
	}
	return c
}

// snapshot copies the relations q reads out of the master at the fold
// frontier: the row lists are copied and the rows shared, since the master
// never changes a row in place (RowSet.Insert appends a clone, TryRemove
// only moves rows). The other relations keep their schema alone, which is
// all a session reads of them. Caller holds stateMu.
func (s *Server) snapshot(q *query.Query) *relation.Database {
	rels := make([]*relation.Relation, 0, len(s.master.Names()))
	for _, name := range s.master.Names() {
		r := s.master.Relation(name)
		cp := &relation.Relation{Name: name, Attrs: r.Attrs}
		if _, ok := q.Atom(name); ok {
			cp.Rows = slices.Clone(r.Rows)
		}
		rels = append(rels, cp)
	}
	return relation.MustNewDatabase(rels...)
}

// sessionOptions are the options of every session the server opens, for
// the solver options a query registered with.
func (s *Server) sessionOptions(opts core.Options) incremental.Options {
	opts.Parallelism = s.opts.Parallelism
	opts.Pool = s.pool
	return incremental.Options{
		Options:               opts,
		RebuildTombstoneRatio: DefaultRebuildTombstoneRatio,
		Metrics:               s.m.reg,
		Logger:                s.logger,
	}
}

// Append validates ups against the schema and appends them to the update
// log, returning the log sequence range [from, to) they occupy. The shard
// writers apply them asynchronously; WaitApplied(to) blocks until they are
// live in every published view.
func (s *Server) Append(ups []relation.Update) (from, to int64, err error) {
	return s.AppendTraced(ups, nil)
}

// AppendTraced is Append under an already-started trace (the HTTP ingress
// starts one per request). tr may be nil: a live server then starts its
// own, so library callers get traced too, while replicated and recovery
// replays (which re-append journaled batches) stay untraced on this path
// — the follower records its own mirror+apply trace under the leader's
// ID.
func (s *Server) AppendTraced(ups []relation.Update, tr *obs.ActiveTrace) (from, to int64, err error) {
	if err := s.fenced(); err != nil {
		return 0, 0, err
	}
	for i, up := range ups {
		r := s.master.Relation(up.Rel) // schema is static: safe without stateMu
		if r == nil {
			return 0, 0, fmt.Errorf("serve: update %d: no relation %q", i, up.Rel)
		}
		if len(up.Row) != len(r.Attrs) {
			return 0, 0, fmt.Errorf("serve: update %d: tuple arity %d does not match %s arity %d",
				i, len(up.Row), up.Rel, len(r.Attrs))
		}
	}
	if tr == nil {
		// Same gate as ackMetric: a durable server replaying its WAL (or a
		// follower applying replicated records) must not trace the replay as
		// fresh traffic.
		if d := s.wal; d == nil || d.log == nil || d.active.Load() {
			tr = s.traces.Start("update")
		}
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed || s.drain {
		return 0, 0, errClosed
	}
	from = s.appended.Load()
	cloned := make([]relation.Update, 0, len(ups))
	for _, up := range ups {
		cloned = append(cloned, relation.Update{Rel: up.Rel, Row: up.Row.Clone(), Insert: up.Insert})
	}
	// Journal before acknowledging: once appendUpdates returns, the batch is
	// as durable as Options.SyncEvery promises, and only then does it enter
	// the in-memory log. A WAL failure refuses the append outright (and the
	// sticky WAL error keeps refusing) rather than acknowledging an update
	// a restart would lose.
	walStart := time.Now()
	stats, err := s.wal.appendUpdates(from, cloned, tr.ID())
	if err != nil {
		return 0, 0, err
	}
	if stats.Total > 0 {
		tr.StageAt("wal-append", walStart, stats.Total)
		if stats.Synced {
			tr.StageAt("wal-fsync", walStart.Add(stats.Total-stats.Fsync), stats.Fsync)
		}
	}
	s.ackMetric("updates")
	s.log = append(s.log, cloned...)
	if s.traces != nil {
		// Keep traceLog aligned with log even for untraced entries (nil
		// ActiveTrace methods are no-ops downstream).
		for range cloned {
			s.traceLog = append(s.traceLog, tr)
		}
	}
	to = from + int64(len(cloned))
	s.appended.Store(to)
	s.m.appended.Set(float64(to))
	s.logCond.Broadcast()
	return from, to, nil
}

// Epoch returns the last published consistent cut (log entries folded by
// every shard and reflected in the views).
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// WaitApplied blocks until the server epoch reaches lsn (as returned by
// Append) or the server closes.
func (s *Server) WaitApplied(lsn int64) error {
	return s.WaitAppliedCtx(context.Background(), lsn)
}

// WaitAppliedCtx is WaitApplied honoring ctx: a cancelled request (the
// client of a ?wait=epoch hung up) releases the waiter instead of parking
// it until the epoch arrives. On a fenced server a wait whose target has
// not been reached returns the fence error (see Fence).
func (s *Server) WaitAppliedCtx(ctx context.Context, lsn int64) error {
	for {
		if s.epoch.Load() >= lsn {
			return nil
		}
		if err := s.fenced(); err != nil {
			return err
		}
		s.waitMu.Lock()
		ch := s.epochCh
		s.waitMu.Unlock()
		if ch == nil {
			return fmt.Errorf("serve: server closed at epoch %d before %d", s.epoch.Load(), lsn)
		}
		if s.epoch.Load() >= lsn {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// WAL exposes the server's write-ahead log (nil when the server is not
// durable) — the record stream internal/serve/replica ships to followers.
// Callers must only read (ReadFrom, positions, LatestCheckpoint); the
// server owns the write side.
func (s *Server) WAL() *wal.Log {
	if s.wal == nil {
		return nil
	}
	return s.wal.log
}

// View returns the latest published view of a query — one atomic load. It
// never moves backwards and is never blocked by the writers; the View type
// states the cut contract.
func (s *Server) View(id string) (*View, error) {
	sq, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	v := sq.view.Load()
	if v.Err != nil {
		return nil, fmt.Errorf("serve: query %q failed at epoch %d: %w", id, v.Epoch, v.Err)
	}
	s.m.viewReads.Inc()
	return v, nil
}

// Count returns |Q(D)| at the query's last published epoch.
func (s *Server) Count(id string) (int64, int64, error) {
	v, err := s.View(id)
	if err != nil {
		return 0, 0, err
	}
	return v.Count, v.Epoch, nil
}

// LS returns the local-sensitivity result at the last published epoch.
func (s *Server) LS(id string) (*core.Result, int64, error) {
	v, err := s.View(id)
	if err != nil {
		return nil, 0, err
	}
	return v.LS, v.Epoch, nil
}

// Release answers the query with ε-differential privacy from the published
// sensitivity snapshot, debiting the query's budget ledger. While the
// current count stays within the query's drift fraction of the last released
// one, the cached release replays and nothing is spent. Concurrent releases
// of one query serialize among themselves (replay-cache consistency) but
// never wait on the writers.
func (s *Server) Release(id string, rng *rand.Rand) (*ReleaseResult, error) {
	if err := s.fenced(); err != nil {
		return nil, err
	}
	releaseStart := time.Now()
	defer func() {
		if d := time.Since(releaseStart); d >= s.traces.SlowThreshold() && s.traces.SlowThreshold() > 0 && s.logger != nil {
			s.logger.Warn("slow release", "query", id, "took", d)
		}
	}()
	sq, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if sq.private == "" {
		return nil, fmt.Errorf("serve: query %q has no private relation; register with Private set", id)
	}
	v := sq.view.Load()
	if v.Err != nil {
		return nil, fmt.Errorf("serve: query %q failed at epoch %d: %w", id, v.Epoch, v.Err)
	}
	sq.relMu.Lock()
	defer sq.relMu.Unlock()
	res := &ReleaseResult{Epoch: v.Epoch, SensEpoch: v.SensEpoch}
	if sq.lastRun != nil && !drifted(v.Count, sq.lastCount, sq.drift) {
		run := *sq.lastRun
		mechanism.Rebase(&run, v.Count)
		res.Run = &run
		s.m.releases.With("false").Inc()
	} else {
		if err := sq.ledger.Spend(sq.cfg.Epsilon); err != nil {
			return nil, err
		}
		sens := make([]int64, len(v.Sens))
		copy(sens, v.Sens)
		run, err := mechanism.Release(sens, sq.cfg, rng)
		if err != nil {
			return nil, err
		}
		// Journal the spend (and the run, so replays after recovery return
		// the same noisy value) before handing out the answer. On a WAL
		// failure the noisy value is withheld: the in-memory spend stands —
		// conservatively so, since budget charged for an answer never
		// released can only overstate spending, never reset it.
		if s.wal.enabled() {
			if werr := s.wal.appendJSON(recRelease, releaseRecord{
				ID: sq.id, Seq: sq.releases + 1, Spent: sq.cfg.Epsilon, Count: v.Count, Run: *run,
			}); werr != nil {
				return nil, werr
			}
		}
		sq.lastRun = run
		sq.lastCount = v.Count
		sq.releases++
		s.ackMetric("release")
		s.m.releases.With("true").Inc()
		out := *run
		res.Run = &out
		res.Fresh = true
		res.Spent = sq.cfg.Epsilon
	}
	res.TotalSpent = sq.ledger.Spent()
	res.Remaining, res.HasBudget = sq.ledger.Remaining()
	s.budgetMetrics(sq)
	return res, nil
}

// Queries lists the registered queries with their latest views.
func (s *Server) Queries() []QueryInfo {
	s.qmu.RLock()
	sqs := make([]*servedQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		sqs = append(sqs, sq)
	}
	s.qmu.RUnlock()
	out := make([]QueryInfo, 0, len(sqs))
	for _, sq := range sqs {
		v := sq.view.Load()
		info := QueryInfo{
			ID:      sq.id,
			Query:   sq.text,
			Private: sq.private,
			Epoch:   v.Epoch,
			Failed:  v.Err != nil,
		}
		if v.Err == nil {
			info.Count = v.Count
			info.LS = v.LS.LS
		}
		if sq.ledger != nil {
			info.Budget = sq.ledger.Budget()
			info.Spent = sq.ledger.Spent()
		}
		sq.relMu.Lock()
		info.Releases = sq.releases
		sq.relMu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns server-wide counters.
func (s *Server) Stats() Stats {
	s.qmu.RLock()
	n := len(s.queries)
	s.qmu.RUnlock()
	wm := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		wm[i] = sh.watermark.Load()
	}
	st := Stats{
		Epoch:      s.epoch.Load(),
		Appended:   s.appended.Load(),
		Skipped:    s.skipped.Load(),
		Queries:    n,
		Shards:     len(s.shards),
		Watermarks: wm,
	}
	if s.wal != nil {
		st.WAL = true
		st.DurableEpoch = s.wal.durableEpoch.Load()
	}
	return st
}

func (s *Server) lookup(id string) (*servedQuery, error) {
	s.qmu.RLock()
	sq, ok := s.queries[id]
	s.qmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoQuery, id)
	}
	return sq, nil
}

// writer is the coordinator: it drains the log in batches, folds each batch
// into the master rows, hands every shard the same round, and moves straight
// on to the next batch — the shards drain their queues independently and
// the epoch advances as their watermark join does.
func (s *Server) writer() {
	defer s.wg.Done()
	drained := s.frontier.Load() // non-zero when recovering from a checkpoint
	for {
		batch, btraces := s.nextBatch(drained)
		if batch == nil {
			for _, sh := range s.shards {
				sh.closeQueue()
			}
			return
		}
		roundStart := time.Now()
		s.m.drainBatch.Observe(float64(len(batch)))
		s.stateMu.Lock()
		valid := batch[:0:0]
		for _, up := range batch {
			if s.applyToMaster(up) {
				valid = append(valid, up)
			} else {
				s.skipped.Add(1)
			}
		}
		s.m.skipped.Set(float64(s.skipped.Load()))
		newEpoch := drained + int64(len(batch))
		// The frontier advances before stateMu releases, so a Register that
		// takes over the lock reads a cut consistent with the master rows it
		// snapshots (the published epoch may still trail).
		s.frontier.Store(newEpoch)

		rd := &round{valid: valid, cut: newEpoch, btraces: btraces,
			start: roundStart, queued: time.Now(), batchLen: len(batch)}
		rd.pending.Store(int32(len(s.shards)))
		for _, sh := range s.shards {
			sh.enqueue(task{rd: rd}) // queues close only after this loop exits
		}
		if s.wal != nil {
			s.maybeCheckpointLocked(newEpoch)
		}
		s.stateMu.Unlock()
		drained = newEpoch
	}
}

// advanceEpoch moves the published epoch up to the joined minimum of every
// shard's watermark. Called by each shard after it stores its own
// watermark; the CAS loop makes concurrent shards race forward
// monotonically, and the gauge refresh re-loads under epochGaugeMu so a
// preempted winner cannot publish a stale gauge over a newer one.
func (s *Server) advanceEpoch() {
	join := s.joinedCut()
	for {
		cur := s.epoch.Load()
		if cur >= join {
			return
		}
		if s.epoch.CompareAndSwap(cur, join) {
			s.epochGaugeMu.Lock()
			s.m.epoch.Set(float64(s.epoch.Load()))
			s.epochGaugeMu.Unlock()
			return
		}
	}
}

// joinedCut returns the minimum watermark over all shards — the largest LSN
// every shard has folded.
func (s *Server) joinedCut() int64 {
	join := s.shards[0].watermark.Load()
	for _, sh := range s.shards[1:] {
		if w := sh.watermark.Load(); w < join {
			join = w
		}
	}
	return join
}

// finishRound is run by the last shard to fold a round: it stamps the
// drain stages onto the batch's traces, completes them, bumps the round
// counters, and emits the slow-round log line. The batch's entries are
// contiguous per Append, so deduplicating consecutive pointers visits each
// trace once. ActiveTrace is internally locked, so finishing from a shard
// goroutine is safe.
func (s *Server) finishRound(rd *round) {
	roundD := time.Since(rd.start)
	s.m.drainRound.Observe(roundD.Seconds())
	s.m.rounds.Inc()
	var first obs.TraceID
	var prev *obs.ActiveTrace
	for _, tr := range rd.btraces {
		if tr == nil || tr == prev {
			continue
		}
		prev = tr
		if first == 0 {
			first = tr.ID()
		}
		tr.StageAt("shard-drain", rd.queued, roundD-rd.queued.Sub(rd.start))
		tr.StageAt("drain", rd.start, roundD)
		tr.Finish()
	}
	if roundD >= s.traces.SlowThreshold() && s.traces.SlowThreshold() > 0 && s.logger != nil {
		s.logger.Warn("slow drain round",
			"trace", first, "epoch", rd.cut, "batch", rd.batchLen, "took", roundD)
	}
}

// notify wakes WaitApplied waiters.
func (s *Server) notify() {
	s.waitMu.Lock()
	if s.epochCh != nil {
		close(s.epochCh)
		s.epochCh = make(chan struct{})
	}
	s.waitMu.Unlock()
}

// nextBatch blocks until log entries past off exist and returns at most
// BatchSize of them. A CloseNow'd server returns nil immediately (the
// backlog is abandoned); a gracefully closing one (drain) keeps returning
// batches until every acknowledged entry has been folded, then nil — the
// guarantee that a successful Append is never lost by a clean shutdown.
//
// It also compacts the log: everything before the drained offset has been
// applied and is never read again. Once the reclaimable prefix dominates
// the slice, the live tail moves to a fresh allocation and logBase
// advances.
// The half-full trigger amortizes the copy to O(1) per entry while keeping
// a long-lived server's log proportional to its backlog, not its history.
func (s *Server) nextBatch(off int64) ([]relation.Update, []*obs.ActiveTrace) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if pre := off - s.logBase; pre > 0 && 2*pre >= int64(len(s.log)) {
		s.log = append([]relation.Update(nil), s.log[pre:]...)
		if s.traceLog != nil {
			// traceLog compacts in lockstep so entry i's trace stays at i.
			s.traceLog = append([]*obs.ActiveTrace(nil), s.traceLog[pre:]...)
		}
		s.logBase = off
	}
	for s.logBase+int64(len(s.log)) <= off && !s.closed && !s.drain {
		s.logCond.Wait()
	}
	if s.closed || s.logBase+int64(len(s.log)) <= off {
		return nil, nil
	}
	start := off - s.logBase
	end := int64(len(s.log))
	if end > start+int64(s.opts.BatchSize) {
		end = start + int64(s.opts.BatchSize)
	}
	var traces []*obs.ActiveTrace
	if s.traceLog != nil {
		traces = s.traceLog[start:end]
	}
	return s.log[start:end], traces
}

// applyToMaster folds one update into the master rows, reporting false for
// deletes of absent tuples (which the sessions must not see).
func (s *Server) applyToMaster(up relation.Update) bool {
	r := s.master.Relation(up.Rel)
	rs := s.rowpos[up.Rel]
	if up.Insert {
		rs.Insert(r, up.Row)
		return true
	}
	return rs.TryRemove(r, up.Row)
}

func drifted(cur, base int64, frac float64) bool {
	b := base
	if b < 0 {
		b = -b
	}
	if b < 1 {
		b = 1
	}
	d := cur - base
	if d < 0 {
		d = -d
	}
	return float64(d) > frac*float64(b)
}
