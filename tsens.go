// Package tsens is the public API of the TSens library, a Go implementation
// of "Computing Local Sensitivities of Counting Queries with Joins" (Tao,
// He, Machanavajjhala, Roy — SIGMOD 2020).
//
// Given a full conjunctive counting query Q without self-joins and a
// database D, the library computes the local sensitivity LS(Q,D) — the
// largest change in |Q(D)| caused by inserting or deleting one tuple
// anywhere — together with the most sensitive tuple, in near-linear time
// for path and doubly-acyclic queries (Algorithms 1 and 2 of the paper) and
// through generalized hypertree decompositions for cyclic queries. On top
// of the sensitivity engine it provides TSensDP, a truncation-based
// ε-differentially-private mechanism for answering counting queries, plus
// the baselines the paper compares against (elastic sensitivity, a
// PrivSQL-style mechanism, and the naive re-evaluation oracle).
//
// The execution layer is a fused hash kernel over counted relations
// (int64-keyed joins and group-bys with arena row storage; see
// docs/PERFORMANCE.md), and the join-tree passes run on a bounded worker
// pool — set Options.Parallelism to control it (0 = GOMAXPROCS, 1 =
// sequential; results are identical at any setting). Options.Pool
// additionally shares one set of worker goroutines across solver
// invocations (NewWorkerPool).
//
// For changing data, OpenSession returns a stateful Session that maintains
// |Q(D)| and LS(Q,D) under single-tuple inserts and deletes with
// near-O(path) delta propagation instead of from-scratch passes (see
// docs/INCREMENTAL.md), and NewStreamingTSensDP layers a drift-triggered
// ε-DP release schedule on top of it.
//
// NewServer turns the session engine into a long-lived serving process: one
// shared snapshot plus an append-only update log multiplexes many
// registered queries behind a sharded-writer/multi-reader boundary
// (ServerOptions.Shards): queries with equal join plans share one session,
// owned by a per-shard writer goroutine chosen by the hash of the plan key
// (atoms, selections, decomposition, skip set; not the query's name or
// text), every shard folds every update, and each query's epoch view is
// one exact cut of the log. Budget-accounted ε-DP releases and an HTTP/JSON front end ride
// on top (NewServerAPI, the tsens serve command; see docs/SERVING.md).
// With ServerOptions.WALDir set the server is durable: appends, query
// registrations, and every fresh ε-spend are journaled to a checksummed
// write-ahead log before acknowledgment, periodic checkpoints bound
// recovery replay, and a restart recovers every registered query at its
// exact epoch with its exact spent budget (tsens serve -wal).
//
// Quick start:
//
//	r1, _ := tsens.NewRelation("R1", []string{"a", "b"}, rows1)
//	r2, _ := tsens.NewRelation("R2", []string{"b", "c"}, rows2)
//	db, _ := tsens.NewDatabase(r1, r2)
//	q, _ := tsens.ParseQuery("q", "R1(A,B), R2(B,C)")
//	res, _ := tsens.LocalSensitivity(q, db, tsens.Options{})
//	fmt.Println(res.LS, res.Best)
//
//	sess, _ := tsens.OpenSession(q, db, tsens.SessionOptions{})
//	_ = sess.Insert("R1", tsens.Tuple{1, 2})
//	res2, _ := sess.LS()
//	fmt.Println(sess.Count(), res2.LS)
package tsens

import (
	"math/rand"

	"tsens/internal/core"
	"tsens/internal/elastic"
	"tsens/internal/ghd"
	"tsens/internal/incremental"
	"tsens/internal/mechanism"
	"tsens/internal/par"
	"tsens/internal/parser"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/workload"
	"tsens/internal/yannakakis"
)

// Data model.
type (
	// Tuple is a row of int64 attribute values. Use Dict to encode strings.
	Tuple = relation.Tuple
	// Relation is a named base table under bag semantics.
	Relation = relation.Relation
	// Database is a set of relations addressed by name.
	Database = relation.Database
	// Dict dictionary-encodes strings to int64 values.
	Dict = relation.Dict
	// Counted is a relation with an explicit multiplicity column, the form
	// returned by Materialize. Its rows live in one columnar arena: read
	// row i with Row(i), a read-only view whose values never change, count
	// them with Len(), and read row i's multiplicity as Cnt[i].
	Counted = relation.Counted
)

// Query model.
type (
	// Query is a full conjunctive counting query without self-joins.
	Query = query.Query
	// Atom is one R(vars...) literal of a query body.
	Atom = query.Atom
	// Predicate is a per-tuple selection on one variable.
	Predicate = query.Predicate
	// Op is a predicate comparison operator.
	Op = query.Op
	// Decomposition assigns atoms to GHD bags for cyclic queries.
	Decomposition = ghd.Decomposition
)

// Predicate operators.
const (
	Eq = query.Eq
	Ne = query.Ne
	Lt = query.Lt
	Le = query.Le
	Gt = query.Gt
	Ge = query.Ge
)

// Sensitivity engine types.
type (
	// Options configures LocalSensitivity (decomposition, skip list, top-k).
	Options = core.Options
	// Result reports LS, the most sensitive tuple, and per-relation maxima.
	Result = core.Result
	// TupleResult is one relation's most sensitive tuple.
	TupleResult = core.TupleResult
	// SensitivityFn evaluates δ(t,Q,D) for tuples of one relation.
	SensitivityFn = core.SensitivityFn
	// NaiveOptions bounds the brute-force oracle.
	NaiveOptions = core.NaiveOptions
)

// Mechanism types.
type (
	// DPRun is one differentially-private mechanism execution.
	DPRun = mechanism.Run
	// TSensDPConfig parameterizes the TSensDP mechanism.
	TSensDPConfig = mechanism.TSensDPConfig
	// PrivSQLConfig parameterizes the PrivSQL-style baseline.
	PrivSQLConfig = mechanism.PrivSQLConfig
	// Truncation is one relation/key pair of a PrivSQL policy.
	Truncation = mechanism.Truncation
	// StreamingTSensDP re-noises a TSensDP answer only when the true count
	// drifts, for serving counting queries over a live Session.
	StreamingTSensDP = mechanism.StreamingTSensDP
	// StreamingTSensDPConfig parameterizes the streaming mechanism.
	StreamingTSensDPConfig = mechanism.StreamingTSensDPConfig
)

// Incremental-session types.
type (
	// Session maintains LS(Q,D) and |Q(D)| under tuple inserts/deletes.
	Session = incremental.Session
	// SessionOptions configures OpenSession (exactness, bulk-rebuild
	// threshold, and the embedded solver Options).
	SessionOptions = incremental.Options
	// Update is one replayable single-tuple insert or delete.
	Update = relation.Update
	// WorkerPool is a reusable fixed-size worker pool for Options.Pool.
	WorkerPool = par.Pool
)

// Serving types.
type (
	// Server is a long-lived DP query server: a shared snapshot plus an
	// append-only update log folded by per-shard writers, multiplexing
	// registered queries (one incremental session per distinct plan, owned
	// by one shard) behind a sharded-writer/multi-reader boundary. Readers answer
	// from atomically published epoch views — always one exact cut of the
	// log — and never block on update application.
	Server = serve.Server
	// ServerOptions configures NewServer (shard count, writer batch size,
	// session-open parallelism, drift gating, and WAL durability: WALDir,
	// SyncEvery, CheckpointEvery, WALCodec). Every session the server opens
	// applies each batch one update at a time and compacts its tables in
	// place at serve.DefaultRebuildTombstoneRatio.
	ServerOptions = serve.Options
	// BudgetLedgerState is the exportable accounting of a BudgetLedger,
	// the part a durable deployment must persist across restarts.
	BudgetLedgerState = mechanism.LedgerState
	// ServerQuery registers one counting query with a Server (query,
	// solver options, private relation, release config, ε budget).
	ServerQuery = serve.QueryConfig
	// ServerView is one published epoch of one query: count, LS result,
	// and the drift-gated sensitivity snapshot releases read.
	ServerView = serve.View
	// ServerRelease is the outcome of one budget-accounted noisy release.
	ServerRelease = serve.ReleaseResult
	// ServerStats summarizes writer progress (epoch, backlog, skips).
	ServerStats = serve.Stats
	// ServerCodec translates wire values for the HTTP API; csvio loaders
	// implement it for dictionary-encoded snapshots.
	ServerCodec = serve.Codec
	// ServerAPI is the HTTP/JSON front end of a Server.
	ServerAPI = serve.API
	// BudgetLedger accounts cumulative ε spending against a fixed budget
	// under sequential composition.
	BudgetLedger = mechanism.Ledger
)

// NewServer starts a serving process over a private copy of db; register
// queries with Server.Register, feed updates through Server.Append, and
// read views/releases concurrently. Close it when done — gracefully: the
// acknowledged backlog is drained first (Server.CloseNow abandons it).
//
// With opts.WALDir set the server is durable: a fresh directory is seeded
// with a checkpoint of db, an existing one is recovered (db may then be
// nil) — registered queries, their epochs, and their exact spent ε come
// back, and an acknowledged Append or release is never lost to a crash.
func NewServer(db *Database, opts ServerOptions) (*Server, error) {
	return serve.New(db, opts)
}

// NewServerAPI wraps a Server in its HTTP/JSON handler. codec may be nil
// for integer-only data. A seed of 0 draws a cryptographically random
// release-noise seed (the production default); fix it only to make tests
// reproducible.
func NewServerAPI(srv *Server, codec ServerCodec, seed int64) *ServerAPI {
	return serve.NewAPI(srv, codec, seed)
}

// NewBudgetLedger returns a ledger enforcing a total ε budget (0 means
// unlimited, only recording what is spent).
func NewBudgetLedger(budget float64) (*BudgetLedger, error) {
	return mechanism.NewLedger(budget)
}

// RestoreBudgetLedger rebuilds a ledger from persisted accounting (the
// inverse of BudgetLedger.Export): embedders running their own durability
// must carry spent ε across restarts, or a crash resets every query's
// budget and voids the sequential-composition guarantee.
func RestoreBudgetLedger(st BudgetLedgerState) (*BudgetLedger, error) {
	return mechanism.RestoreLedger(st)
}

// NewWorkerPool starts a pool of n persistent workers (n < 1 means
// GOMAXPROCS) that Options.Pool can share across solver invocations and
// sessions. Close it when done.
func NewWorkerPool(n int) *WorkerPool { return par.NewPool(n) }

// OpenSession pins the query's join tree over a private copy of db and
// returns a stateful Session: Insert and Delete apply single-tuple updates
// by patching only the botjoin/topjoin tables on the affected root-to-leaf
// path (plus the multiplicity-table factors they feed), so Count() is O(1)
// and LS() costs hash lookups instead of full passes. See
// docs/INCREMENTAL.md for the cost model and fallback rules.
func OpenSession(q *Query, db *Database, opts SessionOptions) (*Session, error) {
	return incremental.Open(q, db, opts)
}

// GenerateUpdateStream derives a deterministic, replayable single-tuple
// update stream from a snapshot (deleteFrac of the ops delete live tuples;
// inserts recombine existing column values), the workload datagen -updates
// emits and Session.Apply replays.
func GenerateUpdateStream(db *Database, n int, deleteFrac float64, seed int64) []Update {
	return workload.UpdateStream(db, n, deleteFrac, seed)
}

// NewStreamingTSensDP binds the drift-triggered TSensDP variant to a live
// session and its primary private relation. Each fresh release spends the
// configured ε on the current database state; replayed answers spend
// nothing.
func NewStreamingTSensDP(sess *Session, private string, cfg StreamingTSensDPConfig) (*StreamingTSensDP, error) {
	return mechanism.NewStreamingTSensDP(sess, private, cfg)
}

// NewRelation constructs a validated base relation.
func NewRelation(name string, attrs []string, rows []Tuple) (*Relation, error) {
	return relation.New(name, attrs, rows)
}

// NewDatabase builds a database from relations with unique names.
func NewDatabase(rels ...*Relation) (*Database, error) {
	return relation.NewDatabase(rels...)
}

// NewDict returns an empty string dictionary.
func NewDict() *Dict { return relation.NewDict() }

// NewQuery constructs and validates a conjunctive query.
func NewQuery(name string, atoms []Atom, selections map[string][]Predicate) (*Query, error) {
	return query.New(name, atoms, selections)
}

// ParseQuery parses the textual query form, e.g.
// "R1(A,B), R2(B,C) where R2.C >= 5".
func ParseQuery(name, text string) (*Query, error) {
	return parser.Parse(name, text)
}

// NewDecomposition validates a GHD bag assignment (atom indexes per bag)
// for a cyclic query.
func NewDecomposition(q *Query, bags [][]int) (*Decomposition, error) {
	return ghd.FromBags(q, bags)
}

// FindDecomposition searches exhaustively for a minimal-width GHD; only
// feasible for small queries.
func FindDecomposition(q *Query, maxBagSize int) (*Decomposition, error) {
	return ghd.Search(q, maxBagSize)
}

// IsAcyclic reports whether the query hypergraph is α-acyclic.
func IsAcyclic(q *Query) bool { return query.IsAcyclic(q.Atoms) }

// IsPath reports whether Algorithm 1 (the O(n log n) path algorithm)
// applies to the query.
func IsPath(q *Query) bool {
	_, ok := query.PathOrder(q.Atoms)
	return ok
}

// LocalSensitivity computes LS(Q,D) and the most sensitive tuple with the
// TSens join-tree algorithm (Algorithm 2 plus the Section 5.4 extensions).
func LocalSensitivity(q *Query, db *Database, opts Options) (*Result, error) {
	return core.LocalSensitivity(q, db, opts)
}

// PathLocalSensitivity runs Algorithm 1, the specialized path-query solver.
func PathLocalSensitivity(q *Query, db *Database) (*Result, error) {
	return core.PathLocalSensitivity(q, db)
}

// NaiveLocalSensitivity runs the polynomial-data-complexity oracle of
// Theorem 3.1 (re-evaluation over the active and representative domains).
// It is exponential in query size; use it for validation on small inputs.
func NaiveLocalSensitivity(q *Query, db *Database, opts NaiveOptions) (*Result, error) {
	return core.NaiveLocalSensitivity(q, db, opts)
}

// TupleSensitivities returns a fast evaluator of δ(t,Q,D) for tuples of the
// named relation, the primitive behind sensitivity-based truncation.
func TupleSensitivities(q *Query, db *Database, rel string, opts Options) (SensitivityFn, error) {
	return core.TupleSensitivities(q, db, rel, opts)
}

// DownwardLocalSensitivity computes the deletion-only local sensitivity
// max_t δ⁻(t,Q,D) over existing tuples (the deletion-propagation question).
func DownwardLocalSensitivity(q *Query, db *Database, opts Options) (*Result, error) {
	return core.DownwardLocalSensitivity(q, db, opts)
}

// Count evaluates |Q(D)| for an acyclic query with Yannakakis-style
// counting.
func Count(q *Query, db *Database) (int64, error) {
	return yannakakis.Count(q, db)
}

// CountGHD evaluates |Q(D)| for a cyclic query through a decomposition.
func CountGHD(q *Query, db *Database, d *Decomposition) (int64, error) {
	return yannakakis.CountGHD(q, db, d)
}

// Materialize computes the full join output of an acyclic query over all
// its variables, using Yannakakis's full reducer so intermediate results
// stay bounded by input + output size.
func Materialize(q *Query, db *Database) (*Counted, error) {
	return yannakakis.Output(q, db)
}

// ElasticSensitivity computes the Flex static upper bound on LS(Q,D) along
// a left-deep join plan (empty order uses the query's atom order).
func ElasticSensitivity(q *Query, db *Database, order []string) (int64, error) {
	an, err := elastic.NewAnalyzer(q, db)
	if err != nil {
		return 0, err
	}
	if len(order) == 0 {
		order = elastic.DefaultOrder(q)
	}
	return an.LocalSensitivity(order)
}

// ElasticSensitivityAt computes the Flex bound at distance k: an upper
// bound on the local sensitivity of any database within k tuple changes
// of D, maximized over the choice of sensitive relation.
func ElasticSensitivityAt(q *Query, db *Database, order []string, k int64) (int64, error) {
	an, err := elastic.NewAnalyzer(q, db)
	if err != nil {
		return 0, err
	}
	if len(order) == 0 {
		order = elastic.DefaultOrder(q)
	}
	var max int64
	for _, atom := range q.Atoms {
		s, err := an.SensitivityAt(order, atom.Relation, k)
		if err != nil {
			return 0, err
		}
		if s > max {
			max = s
		}
	}
	return max, nil
}

// SmoothElasticSensitivity computes the β-smooth elastic sensitivity
// max_k e^{-βk}·Ŝ_k(Q,D), the smooth upper bound Flex calibrates noise to.
func SmoothElasticSensitivity(q *Query, db *Database, order []string, beta float64) (float64, error) {
	an, err := elastic.NewAnalyzer(q, db)
	if err != nil {
		return 0, err
	}
	if len(order) == 0 {
		order = elastic.DefaultOrder(q)
	}
	return an.SmoothSensitivity(order, beta)
}

// TSensDP answers the counting query with ε-differential privacy by
// truncating the primary private relation at an SVT-learned tuple
// sensitivity threshold (Section 6.2, Theorem 6.1).
func TSensDP(q *Query, db *Database, opts Options, private string, cfg TSensDPConfig, rng *rand.Rand) (*DPRun, error) {
	return mechanism.TSensDP(q, db, opts, private, cfg, rng)
}

// PrivSQL answers the counting query with the PrivSQL-style baseline:
// frequency-based truncation plus a static global-sensitivity bound.
func PrivSQL(q *Query, db *Database, opts Options, private string, policy []Truncation, order []string, cfg PrivSQLConfig, rng *rand.Rand) (*DPRun, error) {
	return mechanism.PrivSQL(q, db, opts, private, policy, order, cfg, rng)
}
