// Command tsens computes the local sensitivity of a conjunctive counting
// query over CSV relations.
//
// Usage:
//
//	tsens -data ./mydata -query "R1(A,B), R2(B,C) where R2.C >= 5" [flags]
//	tsens updates -data ./mydata -query "R1(A,B), R2(B,C)" [-stream f] [-batch n]
//	tsens serve -data ./mydata [-addr host:port] [-query ... -private R2] [-replay f] [-shards n]
//	tsens serve -wal ./wal -replicate host:port [-lease f]      (replicating leader)
//	tsens serve -wal ./wal2 -follow host:port [-lease f]        (read-serving follower)
//
// The data directory holds one <RelationName>.csv file per relation, first
// row being the column names. Values may be integers or arbitrary strings
// (dictionary-encoded internally). Cyclic queries need -bags, e.g.
// -bags "0,1;2" to put atoms 0 and 1 in one GHD bag and atom 2 in another.
//
// The updates subcommand opens an incremental session over the snapshot and
// replays a single-tuple insert/delete stream (datagen -updates writes one
// as updates.stream), printing |Q(D)| and LS after every batch — each batch
// costing a delta propagation instead of a from-scratch solve.
//
// The serve subcommand starts the long-lived DP query server over the
// snapshot: registered queries are maintained incrementally under a live
// update log and answered concurrently over an HTTP/JSON API, with
// budget-accounted ε-DP releases (see docs/SERVING.md). The write path is
// sharded (-shards): queries with equal join plans share one session, owned
// by a shard chosen by the hash of the plan, and every shard folds every
// update.
//
// A durable server (-wal) can replicate: -replicate starts the WAL-shipping
// listener followers connect to, -follow runs the process as a follower of
// that address (wait-free epoch reads, writes and releases refused with 503
// — the ε-ledger has exactly one writer). With -lease both sides arbitrate
// leadership through a lease file: the leader renews it and fences itself
// on loss; a follower promotes itself through the ordinary WAL recovery
// when the lease expires (docs/SERVING.md, "Replication & failover").
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tsens/internal/core"
	"tsens/internal/csvio"
	"tsens/internal/elastic"
	"tsens/internal/ghd"
	"tsens/internal/incremental"
	"tsens/internal/mechanism"
	"tsens/internal/obs"
	"tsens/internal/parser"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/serve/replica"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain dispatches and maps errors to exit codes uniformly across all
// subcommands: usage errors (bad flags, missing required ones) exit 2, as
// flag.ExitOnError would; runtime failures exit 1; -h exits 0. Before this
// unification, subcommand flag errors exited 2 while every top-level error
// exited 1, so scripts could not tell a typo from a crash.
func realMain(args []string) int {
	var err error
	switch {
	case len(args) > 0 && args[0] == "updates":
		err = runUpdates(args[1:])
	case len(args) > 0 && args[0] == "serve":
		err = runServe(args[1:])
	default:
		err = run(args)
	}
	if err == nil {
		return 0
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue *usageError
	if errors.As(err, &ue) {
		if !ue.quiet {
			fmt.Fprintln(os.Stderr, "tsens:", err)
		}
		return 2
	}
	fmt.Fprintln(os.Stderr, "tsens:", err)
	return 1
}

// usageError marks a command-line usage problem (exit code 2). quiet means
// the flag package already printed the message and the usage text.
type usageError struct {
	err   error
	quiet bool
}

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// parseFlags wraps FlagSet.Parse, classifying parse failures as usage
// errors and letting -h through as flag.ErrHelp.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &usageError{err: err, quiet: true}
	}
	return nil
}

// serveCmd is the assembled state of tsens serve, split from runServe so
// tests can drive the handler without binding a port for real traffic.
// Exactly one of srv/follower is live at a time: srv for a standalone or
// leading process (leader/replLn set when it also replicates), follower
// until a promotion installs the recovered server in its place.
type serveCmd struct {
	api    *serve.API
	ln     net.Listener
	replay func() error // nil without -replay

	lease    replica.LeaseStore // nil without -lease
	holder   string
	ttl      time.Duration
	replAddr string                  // -replicate; a promoted follower re-listens here
	fopts    replica.FollowerOptions // to restart following after a refused promotion

	log *obs.Logger // structured operational log (never nil after buildServe)

	mu       sync.Mutex
	stopped  bool
	srv      *serve.Server
	follower *replica.Follower
	leader   *replica.Leader
	replLn   net.Listener
}

// shutdown tears the process down in dependency order: stop shipping (and
// release the lease) before the server writes its final checkpoint; a
// follower just stops mirroring. Idempotent — the signal path and runServe's
// defer both reach it.
func (c *serveCmd) shutdown() {
	c.mu.Lock()
	c.stopped = true
	ld, f, srv, rln := c.leader, c.follower, c.srv, c.replLn
	c.leader, c.follower, c.srv, c.replLn = nil, nil, nil, nil
	c.mu.Unlock()
	if rln != nil {
		rln.Close()
	}
	if ld != nil {
		ld.Close()
	}
	if f != nil {
		f.Close()
	}
	if srv != nil {
		srv.Close() // graceful: drain + final checkpoint
	}
}

// holderName identifies this process in the lease file.
func holderName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "tsens"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// promoteLoop watches the lease while following. The leader renews it every
// TTL/3, so an unexpired lease means the leader is alive; an expired (or
// gracefully released) one means the follower should take over. Promotion
// runs the ordinary WAL recovery over the mirrored directory — acknowledged
// writes and spent ε carry over exactly.
func (c *serveCmd) promoteLoop(stop <-chan struct{}) {
	tick := c.ttl / 3
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		f := c.follower
		c.mu.Unlock()
		if f == nil {
			return // promoted (or shut down)
		}
		if f.Server() == nil {
			continue // nothing replicated yet; promoting would refuse anyway
		}
		l, ok, err := c.lease.Get()
		if err != nil || !ok {
			continue // no leader has ever led under this lease file
		}
		if l.Holder != c.holder && time.Now().Before(l.Expires) {
			continue // leader alive
		}
		c.tryPromote(f)
	}
}

// tryPromote promotes f, installing the recovered server as the new leading
// backend (and, with -replicate, a fresh shipping listener under a new
// lineage). Promote consumes the follower regardless of outcome, so a
// refusal — e.g. another follower won the lease race — restarts following.
func (c *serveCmd) tryPromote(f *replica.Follower) {
	c.log.Info("leader lease expired; promoting from replicated state")
	srv, err := f.Promote(replica.PromoteOptions{Lease: c.lease, Holder: c.holder, TTL: c.ttl})
	if err != nil {
		c.log.Warn("promotion refused; restarting follower", "err", err)
		nf, ferr := replica.StartFollower(c.fopts)
		if ferr != nil {
			c.log.Error("restarting follower failed", "err", ferr)
			return
		}
		c.installFollower(nf)
		return
	}
	ld, err := replica.NewLeader(srv, replica.LeaderOptions{Lease: c.lease, Holder: c.holder, TTL: c.ttl})
	if err != nil {
		// Someone else took the lease between Promote and here; they lead.
		// Keep serving reads, but fence so no acknowledgment slips out.
		srv.Fence(err)
		c.log.Error("lease lost after promotion; fenced", "err", err)
	}
	var rln net.Listener
	if ld != nil && c.replAddr != "" {
		if rln, err = net.Listen("tcp", c.replAddr); err != nil {
			c.log.Error("replication listener failed", "err", err)
		}
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		if rln != nil {
			rln.Close()
		}
		if ld != nil {
			ld.Close()
		}
		srv.Close()
		return
	}
	c.follower, c.srv, c.leader, c.replLn = nil, srv, ld, rln
	c.mu.Unlock()
	c.api.SetServer(srv)
	c.api.SetStatus(func() serve.Status { return serve.Status{State: serve.StateLeading} })
	if rln != nil {
		go serveReplication(c.log, ld, rln)
	}
	st := srv.Stats()
	c.log.Info("promoted: leading", "epoch", st.Epoch, "queries", st.Queries)
}

// installFollower swaps a freshly started follower in (after a refused
// promotion), or closes it when the process is already shutting down.
func (c *serveCmd) installFollower(f *replica.Follower) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		f.Close()
		return
	}
	c.follower = f
	c.mu.Unlock()
	c.api.SetServerFunc(f.Server)
	c.api.SetStatus(f.Status)
}

// serveReplication runs the WAL-shipping accept loop; its error surfaces on
// the structured log rather than killing the HTTP side (reads stay up
// without replication).
func serveReplication(log *obs.Logger, ld *replica.Leader, ln net.Listener) {
	if err := ld.Serve(ln); err != nil {
		log.Error("replication listener exited", "err", err)
	}
}

// buildServe parses the serve flags, loads the snapshot, starts the server
// (recovering from -wal when the directory holds state), registers the
// optional startup query, and binds the listener.
func buildServe(args []string) (*serveCmd, error) {
	fs := flag.NewFlagSet("tsens serve", flag.ContinueOnError)
	var (
		dataDir    = fs.String("data", "", "directory of <Relation>.csv files (the snapshot)")
		addr       = fs.String("addr", "127.0.0.1:8181", "HTTP listen address")
		queryText  = fs.String("query", "", "register this query at startup (more via POST /queries)")
		queryID    = fs.String("id", "q1", "id of the startup query")
		bagsSpec   = fs.String("bags", "", `GHD bags for a cyclic startup query, e.g. "0,1;2"`)
		skip       = fs.String("skip", "", "comma-separated relations to skip for the startup query")
		private    = fs.String("private", "", "primary private relation of the startup query (enables /release)")
		epsilon    = fs.Float64("epsilon", 1, "ε per fresh release of the startup query")
		bound      = fs.Int64("bound", 100, "TSensDP sensitivity bound ℓ of the startup query")
		budget     = fs.Float64("budget", 0, "total ε budget of the startup query (0 = unlimited)")
		replayFile = fs.String("replay", "", "feed this "+csvio.UpdatesFileName+" stream through the update log")
		replayN    = fs.Int("replay-batch", 32, "updates per replayed append")
		parN       = fs.Int("parallelism", 0, "parallelism of each session open (0 = all cores)")
		batch      = fs.Int("batch", 0, "log entries per epoch (0 = default)")
		shards     = fs.Int("shards", 0, "write-path shards (0 = GOMAXPROCS-bounded default, 1 = single writer)")
		seed       = fs.Int64("seed", 0, "release-noise seed (0 = cryptographically random; fix only for tests)")
		walDir     = fs.String("wal", "", "durability directory: journal writes and ε spends, recover on restart (docs/SERVING.md)")
		walSync    = fs.Int("wal-sync", 1, "WAL fsync cadence in records (1 = before every acknowledgment)")
		ckptEvery  = fs.Int("checkpoint-every", 0, "log entries between WAL checkpoints (0 = default)")
		replicate  = fs.String("replicate", "", "WAL-shipping listen address for replication followers (requires -wal)")
		follow     = fs.String("follow", "", "run as a read-serving follower of this leader replication address (requires -wal)")
		leasePath  = fs.String("lease", "", "lease file arbitrating leadership: the leader renews it, a follower promotes itself when it expires")
		leaseTTL   = fs.Duration("lease-ttl", 3*time.Second, "lease duration; a crashed leader is succeeded after at most this long")
		debug      = fs.Bool("debug", false, "expose pprof profiling under /debug/pprof/ (metrics at /metrics are always on)")
		logLevel   = fs.String("log-level", "info", "minimum structured-log level: debug, info, warn, or error")
		logJSON    = fs.Bool("log-json", false, "emit structured logs as JSON lines instead of key=value text")
		slowMS     = fs.Int("slow-ms", 0, "slow-trace threshold in milliseconds: traces at or over it are always kept in /debug/traces and logged (0 = default 100ms)")
	)
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return nil, usagef("-log-level: %v", err)
	}
	if *slowMS < 0 {
		return nil, usagef("-slow-ms must be non-negative (milliseconds)")
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)
	slow := time.Duration(*slowMS) * time.Millisecond
	if *follow != "" {
		switch {
		case *walDir == "":
			fs.Usage()
			return nil, usagef("-follow requires -wal (the follower's own mirror directory)")
		case *queryText != "" || *replayFile != "" || *dataDir != "":
			return nil, usagef("-follow serves replicated state only; -data, -query, and -replay belong on the leader")
		case *leaseTTL <= 0:
			return nil, usagef("-lease-ttl must be positive")
		}
		// -replicate on a follower takes effect after a promotion: the new
		// leader ships its WAL from there under a fresh lineage.
		return buildFollower(*follow, *walDir, *leasePath, *leaseTTL, *addr, *replicate, serve.Options{
			Parallelism:     *parN,
			BatchSize:       *batch,
			Shards:          *shards,
			SyncEvery:       *walSync,
			CheckpointEvery: *ckptEvery,
			Debug:           *debug,
			SlowThreshold:   slow,
			Logger:          logger,
		}, *seed)
	}
	if *replicate != "" && *walDir == "" {
		fs.Usage()
		return nil, usagef("-replicate requires -wal (followers are shipped the WAL)")
	}
	if *leasePath != "" && *replicate == "" {
		return nil, usagef("-lease without -replicate or -follow has nothing to arbitrate")
	}
	if *leaseTTL <= 0 {
		return nil, usagef("-lease-ttl must be positive")
	}
	if *dataDir == "" && *walDir == "" {
		fs.Usage()
		return nil, usagef("-data is required (or -wal pointing at a recoverable directory)")
	}
	var recovering bool
	if *walDir != "" {
		var err error
		if recovering, err = serve.HasWALState(*walDir); err != nil {
			return nil, err
		}
	}
	loader := csvio.NewLoader()
	var db *relation.Database
	if *dataDir != "" && !recovering {
		// A recovering boot ignores the snapshot entirely (the WAL
		// directory is authoritative), so skip the load instead of paying
		// it on every restart.
		var err error
		if db, err = loader.LoadDir(*dataDir); err != nil {
			return nil, err
		}
	}
	if *replayFile != "" && recovering {
		// Replaying the same stream into recovered state would append every
		// update a second time and double the database. New updates go
		// through POST /updates.
		logger.Warn("wal recovered; skipping -replay (already journaled; POST /updates for new ones)",
			"wal", *walDir, "replay", *replayFile)
		*replayFile = ""
	}
	sopts := serve.Options{
		Parallelism:   *parN,
		BatchSize:     *batch,
		Shards:        *shards,
		Debug:         *debug,
		SlowThreshold: slow,
		Logger:        logger,
	}
	if *walDir != "" {
		sopts.WALDir = *walDir
		sopts.SyncEvery = *walSync
		sopts.CheckpointEvery = *ckptEvery
		sopts.WALCodec = loader
	}
	srv, err := serve.New(db, sopts)
	if err != nil {
		return nil, err
	}
	recovered := map[string]string{} // id → recovered query text
	if *walDir != "" {
		st := srv.Stats()
		infos := srv.Queries()
		for _, info := range infos {
			recovered[info.ID] = info.Query
		}
		logger.Info("wal recovered", "wal", *walDir, "epoch", st.Epoch, "queries", len(infos))
	}
	if *queryText != "" {
		if prev, ok := recovered[*queryID]; ok {
			// Restarting with the same startup flags must not
			// double-register: the WAL already carries the query (with its
			// spent ε). But the recovered query must actually BE the one on
			// the command line — silently serving a different body under
			// the requested id would misanswer every read.
			q, err := parser.Parse(*queryID, *queryText)
			if err != nil {
				srv.Close()
				return nil, err
			}
			if q.String() != prev {
				srv.Close()
				return nil, fmt.Errorf("wal %s recovered query %q as %q, but -query asks for %q; unregister it first or pick another -id",
					*walDir, *queryID, prev, q.String())
			}
			logger.Info("startup query already recovered; skipping registration", "id", *queryID)
			*queryText = ""
		}
	}
	if *queryText != "" {
		q, err := parser.Parse(*queryID, *queryText)
		if err != nil {
			srv.Close()
			return nil, err
		}
		cfg := serve.QueryConfig{ID: *queryID, Query: q, Private: *private, Budget: *budget}
		if *private != "" {
			cfg.Release = mechanism.TSensDPConfig{Epsilon: *epsilon, Bound: *bound}
		}
		if *skip != "" {
			cfg.Options.SkipRelations = strings.Split(*skip, ",")
		}
		if *bagsSpec != "" {
			bags, err := parseBags(*bagsSpec)
			if err != nil {
				srv.Close()
				return nil, err
			}
			if cfg.Options.Decomposition, err = ghd.FromBags(q, bags); err != nil {
				srv.Close()
				return nil, err
			}
		} else if !query.IsAcyclic(q.Atoms) {
			d, err := ghd.Search(q, 0)
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("startup query is cyclic and no -bags given; automatic search failed: %w", err)
			}
			cfg.Options.Decomposition = d
		}
		id, v, err := srv.Register(cfg)
		if err != nil {
			srv.Close()
			return nil, err
		}
		logger.Info("registered startup query", "id", id, "count", v.Count, "ls", v.LS.LS)
	}
	cmd := &serveCmd{srv: srv, api: serve.NewAPI(srv, loader, *seed), ttl: *leaseTTL, replAddr: *replicate, log: logger}
	cmd.api.SetStatus(func() serve.Status { return serve.Status{State: serve.StateLeading} })
	if *replicate != "" {
		lopts := replica.LeaderOptions{TTL: *leaseTTL}
		if *leasePath != "" {
			cmd.lease = replica.NewFileLease(*leasePath)
			cmd.holder = holderName()
			lopts.Lease, lopts.Holder = cmd.lease, cmd.holder
		}
		// ErrLeaseHeld here means another process leads: refuse to start
		// rather than run a second writer against the same lease.
		ld, err := replica.NewLeader(srv, lopts)
		if err != nil {
			srv.Close()
			return nil, err
		}
		rln, err := net.Listen("tcp", *replicate)
		if err != nil {
			ld.Close()
			srv.Close()
			return nil, err
		}
		cmd.leader, cmd.replLn = ld, rln
		logger.Info("replicating", "addr", rln.Addr(), "lineage", ld.Lineage())
	}
	if *replayFile != "" {
		ups, err := loader.LoadUpdates(*replayFile)
		if err != nil {
			cmd.shutdown()
			return nil, err
		}
		n := *replayN
		if n < 1 {
			n = 1
		}
		cmd.replay = func() error {
			for off := 0; off < len(ups); off += n {
				end := off + n
				if end > len(ups) {
					end = len(ups)
				}
				if _, _, err := srv.Append(ups[off:end]); err != nil {
					return fmt.Errorf("replaying %s at update %d: %w", *replayFile, off, err)
				}
			}
			logger.Info("replayed update stream", "updates", len(ups), "stream", *replayFile)
			return nil
		}
	}
	if cmd.ln, err = net.Listen("tcp", *addr); err != nil {
		cmd.shutdown()
		return nil, err
	}
	return cmd, nil
}

// buildFollower assembles follower mode: mirror the leader's WAL stream
// into dir, serve wait-free epoch reads from the passive server it keeps
// live, and — when a lease file arbitrates leadership — stand by to promote
// through the ordinary WAL recovery the moment the lease expires.
func buildFollower(leaderAddr, dir, leasePath string, ttl time.Duration, addr, replAddr string, sopts serve.Options, seed int64) (*serveCmd, error) {
	loader := csvio.NewLoader()
	sopts.WALCodec = loader
	// One process-level registry, pinned on the API: the mirror, the passive
	// server, its replacements after checkpoint resets, and a promoted
	// successor all record here, so /metrics keeps its history across every
	// backend swap.
	reg := obs.NewRegistry()
	sopts.Metrics = reg
	// The trace recorder is pinned the same way: replicated applies, the
	// passive server, and a promoted successor all record into it, and
	// /debug/traces keeps its flight history across every backend swap.
	rec := obs.NewTraceRecorder(reg, 0, sopts.SlowThreshold)
	sopts.Traces = rec
	fopts := replica.FollowerOptions{Dir: dir, Addr: leaderAddr, Serve: sopts}
	f, err := replica.StartFollower(fopts)
	if err != nil {
		return nil, err
	}
	cmd := &serveCmd{
		api:      serve.NewAPI(nil, loader, seed),
		ttl:      ttl,
		replAddr: replAddr,
		fopts:    fopts,
		follower: f,
		log:      sopts.Logger,
	}
	cmd.api.SetMetrics(reg)
	cmd.api.SetTraces(rec)
	if sopts.Debug {
		cmd.api.EnableDebug()
	}
	if leasePath != "" {
		cmd.lease = replica.NewFileLease(leasePath)
		cmd.holder = holderName()
	}
	cmd.api.SetServerFunc(f.Server)
	cmd.api.SetStatus(f.Status)
	if cmd.ln, err = net.Listen("tcp", addr); err != nil {
		cmd.shutdown()
		return nil, err
	}
	return cmd, nil
}

// runServe starts the long-lived DP query server: it loads the CSV
// snapshot (or recovers the -wal directory), optionally registers a first
// query and replays an update stream, and serves the HTTP/JSON API
// (docs/SERVING.md) until killed. SIGINT/SIGTERM shut it down gracefully:
// the acknowledged backlog is drained and, when durable, a final checkpoint
// is written, so a restart resumes instantly at the exact same state.
func runServe(args []string) error {
	cmd, err := buildServe(args)
	if err != nil {
		return err
	}
	defer cmd.shutdown()
	if cmd.replay != nil {
		go func() {
			if err := cmd.replay(); err != nil {
				cmd.log.Error("replay failed", "err", err)
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	// Both the signal goroutine and an http.Serve failure race toward
	// shutdown; the Once makes whoever gets there first the only closer.
	stopping := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(stopping) }) }
	defer stop()
	go func() {
		select {
		case s := <-sig:
			cmd.log.Info("signal received; draining and shutting down (again to force-quit)", "signal", s)
			// Restore default disposition: a second signal during a slow
			// drain must kill the process, not be swallowed.
			signal.Stop(sig)
			stop()
			cmd.ln.Close() // unblocks hs.Serve
		case <-stopping:
		}
	}()
	if cmd.leader != nil {
		go serveReplication(cmd.log, cmd.leader, cmd.replLn)
	}
	if cmd.follower != nil {
		if cmd.lease != nil {
			go cmd.promoteLoop(stopping)
			cmd.log.Info("following; serving reads", "leader", cmd.fopts.Addr, "addr", cmd.ln.Addr(), "promotes", "on lease expiry")
		} else {
			cmd.log.Info("following; serving reads", "leader", cmd.fopts.Addr, "addr", cmd.ln.Addr())
		}
	} else {
		cmd.log.Info("serving", "addr", cmd.ln.Addr())
	}
	// ReadHeaderTimeout bounds a client that connects and never finishes its
	// headers (slowloris); IdleTimeout reclaims parked keep-alive
	// connections. Request bodies and long ?wait= responses stay unbounded —
	// those waits are cancelled per request by the client hanging up.
	hs := &http.Server{
		Handler:           cmd.api,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	err = hs.Serve(cmd.ln)
	select {
	case <-stopping:
		cmd.shutdown() // graceful: drain + final checkpoint
		return nil
	default:
		stop()
		return err
	}
}

// runUpdates replays an update stream through an incremental session.
func runUpdates(args []string) error {
	fs := flag.NewFlagSet("tsens updates", flag.ContinueOnError)
	var (
		dataDir   = fs.String("data", "", "directory of <Relation>.csv files")
		queryText = fs.String("query", "", `query body, e.g. "R1(A,B), R2(B,C)"`)
		stream    = fs.String("stream", "", "update stream file (default <data>/"+csvio.UpdatesFileName+")")
		bagsSpec  = fs.String("bags", "", `GHD bags for cyclic queries, e.g. "0,1;2"`)
		skip      = fs.String("skip", "", "comma-separated relations to skip")
		batch     = fs.Int("batch", 1, "updates per batch (reports after each batch)")
		bulk      = fs.Int("bulk-threshold", 0, "batch size triggering full rebuild (0 = default, <0 = never)")
		parN      = fs.Int("parallelism", 0, "parallelism for open/rebuild (0 = all cores)")
		every     = fs.Int("every", 1, "print every k-th batch report")
		verify    = fs.Bool("verify", false, "cross-check the final state against a from-scratch solve")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dataDir == "" || *queryText == "" {
		fs.Usage()
		return usagef("-data and -query are required")
	}
	if *batch < 1 {
		return usagef("-batch must be at least 1")
	}
	if *every < 1 {
		return usagef("-every must be at least 1")
	}
	if *stream == "" {
		*stream = filepath.Join(*dataDir, csvio.UpdatesFileName)
	}

	loader := csvio.NewLoader()
	db, err := loader.LoadDir(*dataDir)
	if err != nil {
		return err
	}
	ups, err := loader.LoadUpdates(*stream)
	if err != nil {
		return err
	}
	q, err := parser.Parse("q", *queryText)
	if err != nil {
		return err
	}
	copts := core.Options{Parallelism: *parN}
	if *skip != "" {
		copts.SkipRelations = strings.Split(*skip, ",")
	}
	if *bagsSpec != "" {
		bags, err := parseBags(*bagsSpec)
		if err != nil {
			return err
		}
		copts.Decomposition, err = ghd.FromBags(q, bags)
		if err != nil {
			return err
		}
	} else if !query.IsAcyclic(q.Atoms) {
		d, err := ghd.Search(q, 0)
		if err != nil {
			return fmt.Errorf("query is cyclic and no -bags given; automatic search failed: %w", err)
		}
		copts.Decomposition = d
		fmt.Printf("query is cyclic; using searched GHD bags %v\n", d.Bags)
	}

	sess, err := incremental.Open(q, db, incremental.Options{Options: copts, BulkThreshold: *bulk})
	if err != nil {
		return err
	}
	fmt.Printf("query            : %s\n", q)
	fmt.Printf("opened session   : %d tuples, |Q(D)| = %d\n", db.Size(), sess.Count())
	batches := 0
	for off := 0; off < len(ups); off += *batch {
		end := off + *batch
		if end > len(ups) {
			end = len(ups)
		}
		if err := sess.Apply(ups[off:end]); err != nil {
			return fmt.Errorf("update %d: %w", off, err)
		}
		batches++
		if batches%*every != 0 && end != len(ups) {
			continue
		}
		res, err := sess.LS()
		if err != nil {
			return err
		}
		fmt.Printf("after %6d updates: |Q(D)| = %-12d LS = %d\n", end, res.Count, res.LS)
	}
	fmt.Printf("replayed %d updates in %d batches (%d full rebuilds)\n", len(ups), batches, sess.Rebuilds())
	if *verify {
		cur, err := relationDatabaseFromSession(sess, db)
		if err != nil {
			return err
		}
		want, err := core.LocalSensitivity(q, cur, copts)
		if err != nil {
			return err
		}
		res, err := sess.LS()
		if err != nil {
			return err
		}
		ok := res.LS == want.LS && res.Count == want.Count
		fmt.Printf("verify           : scratch |Q(D)| = %d LS = %d (agrees: %v)\n", want.Count, want.LS, ok)
		if !ok {
			return fmt.Errorf("session diverged from from-scratch solve")
		}
	}
	return nil
}

// relationDatabaseFromSession rebuilds a plain database from the session's
// current rows for the -verify cross-check.
func relationDatabaseFromSession(sess *incremental.Session, orig *relation.Database) (*relation.Database, error) {
	var rels []*relation.Relation
	for _, name := range orig.Names() {
		attrs := orig.Relation(name).Attrs
		rows := sess.Rows(name)
		cp := make([]relation.Tuple, len(rows))
		for i, t := range rows {
			cp[i] = t.Clone()
		}
		r, err := relation.New(name, attrs, cp)
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
	}
	return relation.NewDatabase(rels...)
}

func run(args []string) error {
	fs := flag.NewFlagSet("tsens", flag.ContinueOnError)
	var (
		dataDir   = fs.String("data", "", "directory of <Relation>.csv files")
		queryText = fs.String("query", "", `query body, e.g. "R1(A,B), R2(B,C) where R2.C >= 5"`)
		bagsSpec  = fs.String("bags", "", `GHD bags for cyclic queries: atom indexes, ";"-separated bags, e.g. "0,1;2"`)
		skip      = fs.String("skip", "", "comma-separated relations to skip (known tuple sensitivity ≤ 1)")
		topK      = fs.Int("topk", 0, "top-k approximation of top/botjoins (0 = exact)")
		naive     = fs.Bool("naive", false, "also run the naive Theorem 3.1 oracle (slow; small data only)")
		showElas  = fs.Bool("elastic", false, "also report the elastic-sensitivity upper bound")
		perRel    = fs.Bool("per-relation", false, "print the most sensitive tuple of every relation")
		downward  = fs.Bool("downward", false, "also report the deletion-only (downward) local sensitivity")
		explain   = fs.Bool("explain", false, "print the join tree (or GHD bag tree) the algorithm runs on")
		tupleSpec = fs.String("tuple", "", `evaluate δ of one tuple: "Relation:v1,v2,..." (values as in the CSVs)`)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dataDir == "" || *queryText == "" {
		fs.Usage()
		return usagef("-data and -query are required")
	}

	loader := csvio.NewLoader()
	db, err := loader.LoadDir(*dataDir)
	if err != nil {
		return err
	}
	q, err := parser.Parse("q", *queryText)
	if err != nil {
		return err
	}

	opts := core.Options{TopK: *topK}
	if *skip != "" {
		opts.SkipRelations = strings.Split(*skip, ",")
	}
	if *bagsSpec != "" {
		bags, err := parseBags(*bagsSpec)
		if err != nil {
			return err
		}
		opts.Decomposition, err = ghd.FromBags(q, bags)
		if err != nil {
			return err
		}
	} else if !query.IsAcyclic(q.Atoms) {
		d, err := ghd.Search(q, 0)
		if err != nil {
			return fmt.Errorf("query is cyclic and no -bags given; automatic search failed: %w", err)
		}
		opts.Decomposition = d
		fmt.Printf("query is cyclic; using searched GHD bags %v\n", d.Bags)
	}

	if *explain {
		atoms := q.Atoms
		if opts.Decomposition != nil {
			atoms = opts.Decomposition.BagAtoms(q)
		}
		tree, err := query.BuildJoinTree(atoms)
		if err != nil {
			return err
		}
		fmt.Println("join tree:")
		fmt.Print(tree.Render())
		fmt.Printf("doubly acyclic: %v\n\n", tree.IsDoublyAcyclic())
	}

	res, err := core.LocalSensitivity(q, db, opts)
	if err != nil {
		return err
	}
	fmt.Printf("query            : %s\n", q)
	fmt.Printf("|Q(D)|           : %d\n", res.Count)
	fmt.Printf("local sensitivity: %d%s\n", res.LS, approxMark(res.Approximate))
	fmt.Printf("doubly acyclic   : %v (max join-tree degree %d)\n", res.DoublyAcyclic, res.MaxDegree)
	if res.Best != nil {
		fmt.Printf("most sensitive   : %s\n", renderTuple(loader, res.Best))
	}
	if *perRel {
		fmt.Println("\nper-relation most sensitive tuples:")
		for _, a := range q.Atoms {
			tr, ok := res.PerRelation[a.Relation]
			if !ok {
				fmt.Printf("  %-12s skipped\n", a.Relation)
				continue
			}
			fmt.Printf("  %-12s δ=%-8d %s\n", a.Relation, tr.Sensitivity, renderTuple(loader, tr))
		}
	}
	if *showElas {
		an, err := elastic.NewAnalyzer(q, db)
		if err != nil {
			return err
		}
		bound, err := an.LocalSensitivity(elastic.DefaultOrder(q))
		if err != nil {
			return err
		}
		fmt.Printf("elastic bound    : %d\n", bound)
	}
	if *naive {
		nres, err := core.NaiveLocalSensitivity(q, db, core.NaiveOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("naive oracle     : %d (agrees: %v)\n", nres.LS, nres.LS == res.LS)
	}
	if *downward {
		dres, err := core.DownwardLocalSensitivity(q, db, opts)
		if err != nil {
			return err
		}
		fmt.Printf("downward LS      : %d", dres.LS)
		if dres.Best != nil && dres.Best.Values != nil {
			fmt.Printf("  via %s", renderTuple(loader, dres.Best))
		}
		fmt.Println()
	}
	if *tupleSpec != "" {
		rel, vals, err := parseTuple(loader, *tupleSpec)
		if err != nil {
			return err
		}
		fn, err := core.TupleSensitivities(q, db, rel, opts)
		if err != nil {
			return err
		}
		fmt.Printf("δ(%s) = %d\n", *tupleSpec, fn(vals))
	}
	return nil
}

// parseTuple decodes "Relation:v1,v2,..." with the loader's dictionary, so
// string values written in the CSVs resolve to the same codes.
func parseTuple(loader *csvio.Loader, spec string) (string, relation.Tuple, error) {
	colon := strings.Index(spec, ":")
	if colon < 0 {
		return "", nil, fmt.Errorf(`-tuple must be "Relation:v1,v2,..."`)
	}
	rel := strings.TrimSpace(spec[:colon])
	var vals relation.Tuple
	for _, f := range strings.Split(spec[colon+1:], ",") {
		v, err := loader.Encode(strings.TrimSpace(f))
		if err != nil {
			return "", nil, err
		}
		vals = append(vals, v)
	}
	return rel, vals, nil
}

func approxMark(approx bool) string {
	if approx {
		return " (upper bound: top-k approximation)"
	}
	return ""
}

func renderTuple(loader *csvio.Loader, tr *core.TupleResult) string {
	if tr.Values == nil {
		return fmt.Sprintf("%s: none (sensitivity 0)", tr.Relation)
	}
	parts := make([]string, len(tr.Vars))
	for i := range tr.Vars {
		if tr.Wildcard[i] {
			parts[i] = fmt.Sprintf("%s=*", tr.Vars[i])
		} else {
			parts[i] = fmt.Sprintf("%s=%s", tr.Vars[i], loader.Decode(tr.Values[i]))
		}
	}
	mode := "insert"
	if tr.InDatabase {
		mode = "in database (delete or insert)"
	}
	return fmt.Sprintf("%s(%s)  δ=%d  [%s]", tr.Relation, strings.Join(parts, ", "), tr.Sensitivity, mode)
}

func parseBags(spec string) ([][]int, error) {
	var bags [][]int
	for _, bagStr := range strings.Split(spec, ";") {
		var bag []int
		for _, f := range strings.Split(bagStr, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("bad atom index %q in -bags", f)
			}
			bag = append(bag, v)
		}
		if len(bag) > 0 {
			bags = append(bags, bag)
		}
	}
	return bags, nil
}
