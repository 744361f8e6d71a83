package replica

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/obs"
	"tsens/internal/serve"
	"tsens/internal/serve/wal"
)

// lineageFile persists which leader lineage the mirror's positions belong
// to, next to the mirrored segments.
const lineageFile = "lineage"

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Dir is the follower's own WAL directory: the mirror lands records
	// here, the passive server recovers from here, and promotion runs the
	// ordinary recovery on exactly this directory.
	Dir string
	// Addr is the leader's replication address.
	Addr string
	// Serve is the serving configuration for the passive server and for the
	// promoted one (WALDir is overridden with Dir).
	Serve serve.Options
	// Dial overrides the transport (tests); nil dials TCP.
	Dial func(addr string) (net.Conn, error)
	// Fault wraps the dialer (tests).
	Fault *NetFault
	// ReconnectMin/Max bound the dial retry backoff (defaults 50ms, 1s).
	ReconnectMin, ReconnectMax time.Duration
	// ReadTimeout bounds the wait for one frame; the leader heartbeats
	// every second, so a silent connection longer than this is dead
	// (default 10s).
	ReadTimeout time.Duration
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.ReconnectMin == 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.ReconnectMax == 0 {
		o.ReconnectMax = time.Second
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 10 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 3*time.Second)
		}
	}
	return o
}

// Follower mirrors a leader's WAL stream into its own directory and serves
// wait-free epoch reads from a passive server kept live by applying each
// record through the recovery replay. Everything it serves is durable on
// its own disk first.
type Follower struct {
	opts   FollowerOptions
	mirror *wal.Mirror

	mu       sync.Mutex
	srv      *serve.Server // passive; nil until a checkpoint has landed
	lineage  string
	promoted bool

	connMu sync.Mutex
	conn   net.Conn

	// leaderGen/leaderIdx is the leader's durable frontier from the last
	// heartbeat — observability only; the shipped stream itself never runs
	// past the leader's durable horizon. leaderAppended is the leader's
	// acknowledged update LSN from the same heartbeat: the reference point
	// for staleness (zero until a post-PR-7 leader heartbeats).
	leaderGen, leaderIdx atomic.Int64
	leaderAppended       atomic.Int64

	fm followerMetrics

	done    chan struct{}
	stopped chan struct{}
	stopOne sync.Once
}

// StartFollower opens (or resumes) the mirror in opts.Dir, recovers the
// passive server when local state exists, and starts the replication loop.
func StartFollower(opts FollowerOptions) (*Follower, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("replica: follower requires Dir")
	}
	if opts.Serve.Metrics == nil {
		// One registry for the mirror, the passive server, any promoted
		// successor, and the follower gauges — a scrape survives checkpoint
		// resets and promotion.
		opts.Serve.Metrics = obs.NewRegistry()
	}
	if opts.Serve.Traces == nil {
		// Same pinning for traces: the mirror+apply traces of replicated
		// records land in one process-level recorder that survives
		// checkpoint resets and promotion.
		opts.Serve.Traces = obs.NewTraceRecorder(opts.Serve.Metrics, 0, opts.Serve.SlowThreshold)
	}
	m, err := wal.OpenMirror(opts.Dir, wal.Options{SyncEvery: opts.Serve.SyncEvery, FS: opts.Serve.WALFS, Metrics: opts.Serve.Metrics})
	if err != nil {
		return nil, err
	}
	f := &Follower{
		opts:    opts,
		mirror:  m,
		fm:      newFollowerMetrics(opts.Serve.Metrics),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if raw, err := os.ReadFile(filepath.Join(opts.Dir, lineageFile)); err == nil {
		f.lineage = string(raw)
	}
	if has, err := wal.HasState(opts.Dir); err != nil {
		return nil, err
	} else if has {
		srv, err := serve.OpenFollower(f.serveOpts())
		if err != nil {
			return nil, fmt.Errorf("replica: recovering follower state: %w", err)
		}
		f.srv = srv
	}
	go f.loop()
	return f, nil
}

func (f *Follower) serveOpts() serve.Options {
	o := f.opts.Serve
	o.WALDir = f.opts.Dir
	return o
}

// Server returns the passive server for reads (View/Count/LS, Queries,
// Stats) — nil while the follower has no replicated state yet.
func (f *Follower) Server() *serve.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.srv
}

// Status reports the follower's role and staleness for /readyz: following
// once it has state to serve, recovering before that, plus the replicated
// epoch, applied LSN, the leader's acknowledged LSN from the last
// heartbeat, the resulting lag, and the Retry-After a gated write should
// carry (lag times observed mean apply latency, clamped to [1, 30]s).
func (f *Follower) Status() serve.Status {
	st := serve.Status{State: serve.StateRecovering, Leader: f.opts.Addr, RetryAfterSeconds: 1}
	srv := f.Server()
	if srv == nil {
		return st
	}
	st.State = serve.StateFollowing
	stats := srv.Stats()
	st.Epoch = stats.Epoch
	st.Applied = stats.Appended
	st.LeaderAppended = f.leaderAppended.Load()
	if lag := st.LeaderAppended - st.Applied; lag > 0 {
		st.Lag = lag
	}
	st.RetryAfterSeconds = retryAfterSeconds(st.Lag, f.fm.applySecs)
	f.fm.lag.Set(float64(st.Lag))
	return st
}

// LeaderDurable returns the leader's durable frontier from the last
// heartbeat.
func (f *Follower) LeaderDurable() (gen, idx int64) {
	return f.leaderGen.Load(), f.leaderIdx.Load()
}

// Position returns the follower's replicated position: the (gen, idx) its
// mirror expects next. Equal to the leader's DurablePosition exactly when
// every durable record — updates, registrations, and releases alike — has
// been mirrored and applied (applyRecord is synchronous), which is the
// catch-up test a clean failover waits on.
func (f *Follower) Position() (gen, idx int64) {
	return f.mirror.Position()
}

// Close stops replicating and closes the passive server and mirror.
func (f *Follower) Close() {
	f.stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return // Promote already transferred ownership of dir and state
	}
	if f.srv != nil {
		f.srv.CloseNow()
		f.srv = nil
	}
	_ = f.mirror.Close()
}

func (f *Follower) stop() {
	f.stopOne.Do(func() { close(f.done) })
	f.connMu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()
	<-f.stopped
}

// loop dials, streams, and re-dials with bounded jittered backoff.
func (f *Follower) loop() {
	defer close(f.stopped)
	backoff := f.opts.ReconnectMin
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	dial := f.opts.Fault.Dial(f.opts.Dial)
	for {
		select {
		case <-f.done:
			return
		default:
		}
		c, err := dial(f.opts.Addr)
		if err == nil {
			f.connMu.Lock()
			f.conn = c
			f.connMu.Unlock()
			_ = f.stream(c)
			f.connMu.Lock()
			f.conn = nil
			f.connMu.Unlock()
			c.Close()
			backoff = f.opts.ReconnectMin
		}
		// Jittered backoff so a herd of followers does not re-dial a
		// restarted leader in lockstep.
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff)/2+1))
		select {
		case <-f.done:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > f.opts.ReconnectMax {
			backoff = f.opts.ReconnectMax
		}
	}
}

// stream runs one connection: hello with the resume position, then mirror
// and apply every frame until the connection breaks. Any error returns for
// a reconnect — the handshake re-derives the position from the mirror, so
// a half-processed stream never corrupts anything.
func (f *Follower) stream(c net.Conn) error {
	gen, idx := f.mirror.Position()
	_ = c.SetWriteDeadline(time.Now().Add(f.opts.ReadTimeout))
	if err := writeJSONFrame(c, frameHello, helloMsg{Lineage: f.lineage, Gen: gen, Idx: idx}); err != nil {
		return err
	}
	_ = c.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
	typ, payload, err := readFrame(c)
	if err != nil {
		return err
	}
	if typ != frameWelcome {
		return fmt.Errorf("replica: expected welcome, got %q", typ)
	}
	var wl welcomeMsg
	if err := json.Unmarshal(payload, &wl); err != nil {
		return err
	}
	for {
		_ = c.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
		typ, payload, err := readFrame(c)
		if err != nil {
			return err
		}
		switch typ {
		case frameCheckpoint:
			reset, cg, data, err := decodeCheckpointFrame(payload)
			if err != nil {
				return err
			}
			if err := f.applyCheckpoint(wl.Lineage, reset, cg, data); err != nil {
				return err
			}
		case frameRecord:
			rgen, ridx, kind, data, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			if err := f.applyRecord(rgen, ridx, kind, data); err != nil {
				// The mirror and the live server could disagree after a
				// failed apply; scorch the local state so the reconnect
				// resyncs from a checkpoint instead of serving a divergence.
				f.scorch()
				return err
			}
		case frameHeartbeat:
			hg, hi, happ, err := decodeHeartbeat(payload)
			if err != nil {
				return err
			}
			f.leaderGen.Store(hg)
			f.leaderIdx.Store(hi)
			f.leaderAppended.Store(happ)
			f.fm.heartbeats.Inc()
			f.fm.leaderAppended.Set(float64(happ))
			if srv := f.Server(); srv != nil {
				if lag := happ - srv.Stats().Appended; lag > 0 {
					f.fm.lag.Set(float64(lag))
				} else {
					f.fm.lag.Set(0)
				}
			}
		default:
			return fmt.Errorf("replica: unknown frame %q", typ)
		}
	}
}

func (f *Follower) applyCheckpoint(lineage string, reset bool, gen int64, data []byte) error {
	if !reset {
		// Routine prune shipping: our position is at or past gen, the live
		// server's state covers it — just install and prune the mirror.
		return f.mirror.InstallCheckpoint(data, gen)
	}
	f.fm.resets.Inc()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srv != nil {
		f.srv.CloseNow()
		f.srv = nil
	}
	if err := f.mirror.Reset(); err != nil {
		return err
	}
	if err := f.mirror.InstallCheckpoint(data, gen); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(f.opts.Dir, lineageFile), []byte(lineage), 0o644); err != nil {
		return err
	}
	f.lineage = lineage
	srv, err := serve.OpenFollower(f.serveOpts())
	if err != nil {
		return err
	}
	f.srv = srv
	return nil
}

func (f *Follower) applyRecord(gen, idx int64, kind byte, data []byte) error {
	start := time.Now()
	defer f.fm.applySecs.ObserveSince(start)
	// Durable first, then visible: the mirror lands (and at the configured
	// cadence fsyncs) the record before the live server applies it, so the
	// follower never serves state its own disk could lose.
	if err := f.mirror.Append(gen, idx, kind, data); err != nil {
		return err
	}
	mirrorD := time.Since(start)
	f.mu.Lock()
	srv := f.srv
	f.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("replica: record before first checkpoint")
	}
	applyStart := time.Now()
	if err := srv.ApplyReplicated(kind, data); err != nil {
		return err
	}
	f.fm.applied.With(kindLabel(kind)).Inc()
	// Update records carry the leader's trace ID in their payload; record
	// the follower's half of the trace under the same ID, so one
	// /debug/traces query on each process joins the full life of the
	// update across the pair.
	if kind == 'U' {
		if id := serve.UpdatesTraceID(data); id != 0 {
			f.opts.Serve.Traces.Record(&obs.Trace{
				ID: id, IDText: id.String(), Name: "replicated-update",
				Start: start, Duration: time.Since(start),
				Stages: []obs.Stage{
					{Name: "mirror", OffsetNS: 0, Duration: mirrorD},
					{Name: "apply", OffsetNS: int64(applyStart.Sub(start)), Duration: time.Since(applyStart)},
				},
			})
		}
	}
	return nil
}

// scorch abandons the local replicated state after a failed apply; the
// next connection starts from a reset checkpoint.
func (f *Follower) scorch() {
	f.fm.resets.Inc()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srv != nil {
		f.srv.CloseNow()
		f.srv = nil
	}
	_ = f.mirror.Reset()
	f.lineage = ""
	_ = os.Remove(filepath.Join(f.opts.Dir, lineageFile))
}

// PromoteOptions parameterizes a promotion.
type PromoteOptions struct {
	// MinLSN is the durable horizon the caller requires: the highest update
	// LSN the old leader acknowledged (as far as the caller knows). A
	// follower whose replicated state stops short REFUSES to promote —
	// promoting would silently void acknowledged writes and, worse, resurrect
	// spent ε. The caller's fallback is restarting the old leader from its
	// own directory, which has everything it ever acknowledged.
	MinLSN int64
	// MinGen and MinIdx, when set, are the old leader's durable WAL position
	// (wal.Log.DurablePosition): every record it acknowledged lies before
	// it. MinLSN counts update records only, so a registration or an
	// ε-spending release acknowledged but never shipped would pass it; a
	// follower whose mirror (Position) stops short of this position refuses
	// too.
	MinGen, MinIdx int64
	// Lease, when set, must be acquired before promotion; ErrLeaseHeld
	// (an unexpired lease naming someone else) refuses the promotion.
	Lease  LeaseStore
	Holder string
	TTL    time.Duration
}

// Promote stops following and runs the ordinary durable recovery
// (serve.New with nil database) on the mirrored directory, returning the
// new leading server. The follower is finished afterwards regardless of
// outcome — on refusal, restart a follower or the old leader. The caller
// wraps the returned server in NewLeader to begin shipping (under a fresh
// lineage, so stale mirrors elsewhere reset rather than resume).
func (f *Follower) Promote(p PromoteOptions) (*serve.Server, error) {
	f.stop()
	if err := f.mirror.Sync(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, fmt.Errorf("replica: already promoted")
	}
	if f.srv == nil {
		return nil, fmt.Errorf("replica: refusing promotion: no replicated state")
	}
	if applied := f.srv.Stats().Appended; applied < p.MinLSN {
		return nil, fmt.Errorf("replica: refusing promotion: durable horizon %d short of acknowledged %d — promoting would lose acknowledged writes", applied, p.MinLSN)
	}
	if fg, fi := f.mirror.Position(); fg < p.MinGen || (fg == p.MinGen && fi < p.MinIdx) {
		return nil, fmt.Errorf("replica: refusing promotion: replicated WAL position (%d,%d) short of the leader's durable (%d,%d) — promoting would lose acknowledged records", fg, fi, p.MinGen, p.MinIdx)
	}
	if p.Lease != nil {
		if _, err := p.Lease.Acquire(p.Holder, p.TTL); err != nil {
			return nil, err
		}
	}
	f.srv.CloseNow()
	f.srv = nil
	if err := f.mirror.Close(); err != nil {
		return nil, err
	}
	f.promoted = true
	return serve.New(nil, f.serveOpts())
}
