package serve

// The sharded write path. The update log is partitioned by relation+key
// hash into N shards; each shard owns a long-lived writer goroutine and the
// subset of per-query session state reachable from its partition:
//
//   - For a partitionable query (a variable at every atom's routing column
//     — incremental.PartitionVar), shard i owns a sub-session over hash
//     partition i of the database and receives exactly the updates routed
//     there, so patches for disjoint keys proceed in parallel.
//   - A query that cannot be partitioned keeps one full session, owned by a
//     single designated shard (stable hash of its query text) and fed the
//     whole batch — correctness never depends on partitionability, only
//     speed.
//
// The coordinator cuts rounds at common LSN boundaries (so every shard's
// fold history is the same sequence of cuts), pushes each round onto every
// shard's unbounded FIFO queue, and moves on without waiting for any shard.
// Each shard drains its queue at its own pace; after folding a round it
// publishes, for every unit it owns, a new entry in the unit's version ring
// stamped with the round's cut, advances its watermark, and tries to move
// the published epoch up to the joined minimum of all watermarks. Readers
// assemble a view at read time (Server.currentView): per unit, the newest
// ring entry at-or-below the query's joined cut, tightened to one common
// stamp — because stamps are round cuts and rings are dense (one entry per
// processed round), the assembled vector is exactly the cut at that stamp.
// The cut contract (see View):
//
//   - every view is one exact cut;
//   - a query's views never move backwards;
//   - a query's first view, taken by Register at the fold frontier, may be
//     ahead of the joined cut until the query's shards catch up;
//   - the published epoch never passes the joined cut
//     (TestServeEpochPublishedNeverAheadOfJoined).
//
// A stalled shard therefore stalls only the queries whose units it owns;
// everything else keeps advancing (TestServeAsyncStalledShardIndependence).

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/core"
	"tsens/internal/incremental"
	"tsens/internal/obs"
	"tsens/internal/par"
	"tsens/internal/relation"
)

// ringDepth bounds each unit's version ring. A shard may run this many
// rounds ahead of a query's joined cut before the exact entry a reader
// needs is evicted; past that, reads fall back to the query's last
// assembled view (an older but still consistent cut) until the join
// catches back into the ring. Bounded skew stays perfectly fresh; an
// unbounded stall degrades to staleness, never to a torn read.
const ringDepth = 16

// round is one drain step: the validated batch, the same batch bucketed per
// owning shard (computed once by the coordinator), and the epoch the batch
// advances the server to. All shards process the same round; pending counts
// the shards still to fold it, and the last one finishes the round's traces.
type round struct {
	valid  []relation.Update
	routed [][]relation.Update
	cut    int64

	// Trace plumbing: the batch's in-flight traces plus the coordinator-side
	// timings, stamped by whichever shard drains the round last (pending
	// hits zero).
	pending    atomic.Int32
	btraces    []*obs.ActiveTrace
	start      time.Time
	routeStart time.Time
	routeD     time.Duration
	batchLen   int
}

// shard owns one slice of the write path: a writer goroutine (run), the
// units whose session state it patches, and the watermark of log entries it
// has folded.
type shard struct {
	id    int
	units []*unit
	patch *obs.Histogram // per-round patch latency for this shard

	// umu guards units: Register/Unregister mutate the slice while a round
	// may be in flight, so the worker snapshots it under umu at the start of
	// every round.
	umu sync.Mutex

	// mu/cond/q is the shard's round queue: unbounded FIFO so a slow shard
	// never backpressures the coordinator onto its siblings (a bounded
	// queue would re-couple the shards). Memory is bounded by the
	// acknowledged backlog, which Append already admits.
	mu      sync.Mutex
	cond    *sync.Cond
	q       []*round
	qclosed bool

	// applying marks a round in flight between next() handing it out and
	// endRound, so Register/Unregister can tell an empty queue apart from a
	// truly quiescent shard. Guarded by mu.
	applying bool

	// retired holds units stripped by Unregister while the shard was busy;
	// endRound hands them back for release once the round that may still
	// step them has finished. Guarded by mu, together with applying, so no
	// retired unit outlives the round that made its shard busy.
	retired []*unit

	// watermark is the LSN through which every entry routed to this shard
	// has been folded into its sessions.
	watermark atomic.Int64

	// gate, when set, runs at the start of every round — a test hook that
	// lets the hostile-scheduler tests pause one shard mid-batch.
	gate atomic.Pointer[func(shard int)]
}

// enqueue pushes one round onto the shard's queue.
func (sh *shard) enqueue(rd *round) {
	sh.mu.Lock()
	sh.q = append(sh.q, rd)
	sh.mu.Unlock()
	sh.cond.Signal()
}

// next blocks for the next queued round, or returns nil once the queue is
// closed and fully drained — queued rounds are already folded into the
// master, so they always finish.
func (sh *shard) next() *round {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(sh.q) == 0 && !sh.qclosed {
		sh.cond.Wait()
	}
	if len(sh.q) == 0 {
		return nil
	}
	rd := sh.q[0]
	sh.q[0] = nil
	sh.q = sh.q[1:]
	sh.applying = true
	return rd
}

func (sh *shard) closeQueue() {
	sh.mu.Lock()
	sh.qclosed = true
	sh.mu.Unlock()
	sh.cond.Broadcast()
}

// snapshotUnits copies the unit list for one round under umu.
func (sh *shard) snapshotUnits() []*unit {
	sh.umu.Lock()
	units := append([]*unit(nil), sh.units...)
	sh.umu.Unlock()
	return units
}

// unitVersion is one published epoch of one unit: the immutable outputs of
// its session exactly at the round cut `stamp`. Ring entries are published
// only by the unit's owning shard (or by Register before the unit is
// installed) and read lock-free by view assembly.
type unitVersion struct {
	stamp    int64
	count    int64
	res      *core.Result
	rebuilds int
	err      error

	// sens is the unit's sorted per-tuple sensitivity vector over its
	// slice of the private relation, taken at sensEpoch with drift
	// baseline sensCount (both unit-local). Carried over between versions
	// while the unit's count stays within the drift fraction.
	sens      []int64
	sensEpoch int64
	sensCount int64
}

// unit is one patchable piece of one query's session state: partition
// `part` of a partitionable query (part == shard), or the whole session of
// an unpartitionable one (part < 0). count/res/err are the unit's cached
// outputs: written by the owning shard during rounds (or by Register at
// install) and copied into the unit's next ring entry.
type unit struct {
	sq    *servedQuery
	sess  *incremental.Session
	shard int
	part  int

	count int64
	res   *core.Result
	err   error

	// installCut is the cut the unit's session already reflected when
	// Register installed it; queued rounds at or below it are skipped
	// (their updates were replayed during catch-up).
	installCut int64

	// tried is the session's Rebuilds() count when the unit last tried to
	// move into its sharing domain, so a refused Adopt is retried only after
	// the next rebuild; -1 while the unit waits for its first try (parked by
	// shard.install on a busy shard). Handed off through umu: written by
	// Register as the unit joins sh.units, then owned by the shard's loop.
	tried int

	// ring holds the unit's recent published versions, ascending by stamp;
	// Register seeds it at installCut.
	ring atomic.Pointer[[]*unitVersion]
}

// newestVersion returns the ring's newest entry, or nil.
func (u *unit) newestVersion() *unitVersion {
	if r := u.ring.Load(); r != nil && len(*r) > 0 {
		return (*r)[len(*r)-1]
	}
	return nil
}

// versionAt returns the newest ring entry with stamp ≤ cut, or nil when
// the ring holds none (evicted, or the unit was installed past cut).
func (u *unit) versionAt(cut int64) *unitVersion {
	r := u.ring.Load()
	if r == nil {
		return nil
	}
	ring := *r
	i := sort.Search(len(ring), func(i int) bool { return ring[i].stamp > cut })
	if i == 0 {
		return nil
	}
	return ring[i-1]
}

// publishVersion appends the unit's current outputs to its ring, stamped
// with the given cut, and returns the new ring depth. Single-writer
// (owning shard, or Register pre-install): copy-on-write against
// concurrent readers. Eviction keeps the newest ringDepth entries.
func (u *unit) publishVersion(stamp int64, driftFrac float64) int {
	v := &unitVersion{stamp: stamp, count: u.count, res: u.res, err: u.err}
	prev := u.newestVersion()
	if v.err == nil {
		v.rebuilds = u.sess.Rebuilds()
		if u.sq.private != "" {
			if prev != nil && prev.err == nil && prev.sens != nil && prev.rebuilds == v.rebuilds &&
				driftFrac >= 0 && !drifted(v.count, prev.sensCount, driftFrac) {
				v.sens, v.sensEpoch, v.sensCount = prev.sens, prev.sensEpoch, prev.sensCount
			} else if fn, err := u.sess.SensitivityFn(u.sq.private); err != nil {
				v.err = err
			} else {
				var sens []int64
				for _, row := range u.sess.Rows(u.sq.private) {
					sens = append(sens, fn(row))
				}
				sort.Slice(sens, func(i, j int) bool { return sens[i] < sens[j] })
				v.sens, v.sensEpoch, v.sensCount = sens, stamp, v.count
			}
		}
	}
	var old []*unitVersion
	if r := u.ring.Load(); r != nil {
		old = *r
	}
	start := 0
	if len(old) >= ringDepth {
		start = len(old) - ringDepth + 1
	}
	next := make([]*unitVersion, 0, len(old)-start+1)
	next = append(next, old[start:]...)
	next = append(next, v)
	u.ring.Store(&next)
	return len(next)
}

// run is the shard's writer loop: fold the owned units for each round,
// publish their new versions, advance the watermark, wake waiters.
func (sh *shard) run(s *Server) {
	defer s.wg.Done()
	epochGauge := s.m.shardEpoch.With(shardLabel(sh.id))
	ringGauge := s.m.ringDepth.With(shardLabel(sh.id))
	for {
		rd := sh.next()
		if rd == nil {
			return
		}
		if gate := sh.gate.Load(); gate != nil {
			(*gate)(sh.id)
		}
		units := sh.snapshotUnits()
		routed := rd.routed[sh.id]
		start := time.Now()
		// Units attached to the same plan store patch shared tables and
		// step sequentially within one group; all other units share no
		// mutable state (distinct sessions) and fan out exactly as the
		// PR 3 single writer did. Plain par.Do, not pool.Do: a session
		// rebuild inside the patch borrows the pool itself, and pool
		// workers must not block on nested pool waits.
		groups := planGroups(units)
		_ = par.Do(s.opts.Parallelism, len(groups), func(i int) error {
			stepGroup(groups[i], rd, routed)
			return nil
		})
		sh.patch.ObserveSince(start)
		depth := 0
		publishStart := time.Now()
		for _, u := range units {
			if rd.cut <= u.installCut {
				continue // replayed by Register's catch-up; ring starts at installCut
			}
			if d := u.publishVersion(rd.cut, s.opts.DriftFraction); d > depth {
				depth = d
			}
		}
		s.m.publishView.Observe(time.Since(publishStart).Seconds())
		ringGauge.Set(float64(depth))
		// The round no longer touches any session: adopt what Register
		// parked or a rebuild left outside its sharing domain, and release
		// what Unregister retired meanwhile, before the watermark lets
		// waiters through.
		if adopted, retired := sh.endRound(s, rd.cut); adopted || len(retired) > 0 {
			releaseUnits(retired)
			s.refreshPlanGauges()
		}
		sh.watermark.Store(rd.cut)
		epochGauge.Set(float64(rd.cut))
		s.advanceEpoch()
		s.refreshViews(units)
		if rd.pending.Add(-1) == 0 {
			s.finishRound(rd)
		}
		s.notify()
	}
}

// stepGroup applies one round to a group of units subscribed to the same
// plan store (or to a singleton, where it is plain step). With several
// subscribers, updates interleave one at a time across the whole group:
// the store's lead/follower discipline requires every subscriber to sit at
// the same position before the next update's deltas are computed, because
// a partially-sharing session's private delta-joins read shared operand
// tables, which therefore must not have advanced past the update at hand.
func stepGroup(g []*unit, rd *round, routed []relation.Update) {
	if len(g) == 1 {
		g[0].step(rd, routed)
		return
	}
	ups := rd.valid
	if g[0].part >= 0 {
		ups = routed
	}
	live := g[:0:0]
	for _, u := range g {
		if u.err == nil && rd.cut > u.installCut {
			live = append(live, u)
		}
	}
	if len(ups) == 0 || len(live) == 0 {
		return
	}
	one := make([]relation.Update, 1)
	for _, up := range ups {
		one[0] = up
		for _, u := range live {
			if u.err != nil {
				continue // a propagation error poisons the store; peers fail fast below
			}
			if err := u.sess.Apply(one); err != nil {
				u.err = err
			}
		}
	}
	for _, u := range live {
		u.refresh()
	}
}

// step applies the unit's slice of the round — the whole valid batch for a
// fallback unit, the shard's pre-filtered routed slice for a partitioned
// one — and refreshes its cached count/LS. A unit that previously failed
// stays failed (its tombstone view persists); a unit whose partition the
// round does not touch keeps its cached outputs, which still describe its
// unchanged session.
func (u *unit) step(rd *round, routed []relation.Update) {
	if u.err != nil || rd.cut <= u.installCut {
		return
	}
	ups := rd.valid
	if u.part >= 0 {
		ups = routed
	}
	if len(ups) == 0 {
		return
	}
	if err := u.sess.Apply(ups); err != nil {
		u.err = err
		return
	}
	u.refresh()
}

// refresh recomputes the cached count and LS result from the live session.
// Callers hold the unit quiescent (owning shard inside a round, or Register
// before install).
func (u *unit) refresh() {
	if u.err != nil {
		return
	}
	u.count = u.sess.Count()
	u.res, u.err = u.sess.LS()
}

// pcol returns the routing column of a relation: the configured
// Options.PartitionColumns entry, or column 0.
func (s *Server) pcol(rel string) int {
	return s.pcols[rel]
}

// routeOf returns the shard owning an update: the hash of the value at the
// relation's routing column. Updates whose routing column is out of range
// (never the case for schema-validated appends) fall to shard 0.
func (s *Server) routeOf(up relation.Update) int {
	col := s.pcol(up.Rel)
	if col < 0 || col >= len(up.Row) {
		return 0
	}
	return relation.Shard(up.Row[col], len(s.shards))
}

// fallbackShard is the designated owner of an unpartitionable query's
// session: a stable hash of the query text, so identical fallback queries
// land on one shard and share its fallback store, while distinct ones
// spread across shards instead of piling onto shard 0. Recovery
// re-registers the same text, so the assignment survives restarts.
func (s *Server) fallbackShard(text string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(text))
	return relation.Shard(int64(h.Sum64()), len(s.shards))
}

// NumShards returns the number of write-path shards.
func (s *Server) NumShards() int { return len(s.shards) }

// ShardOf returns the shard that owns an update's write path.
func (s *Server) ShardOf(up relation.Update) int { return s.routeOf(up) }

// Owners returns the deduplicated set of shards owning at least one of
// ups, in shard order — the set WaitShards needs for read-your-writes of
// exactly these updates.
func (s *Server) Owners(ups []relation.Update) []int {
	seen := make([]bool, len(s.shards))
	for _, up := range ups {
		seen[s.routeOf(up)] = true
	}
	out := make([]int, 0, len(seen))
	for i, hit := range seen {
		if hit {
			out = append(out, i)
		}
	}
	return out
}

// WaitShards blocks until every listed shard's watermark reaches lsn (all
// their entries below lsn folded) or the server closes. Unlike WaitApplied,
// it does not wait for unrelated shards: a healthy shard folds every round
// of its own queue no matter what its siblings do.
func (s *Server) WaitShards(shards []int, lsn int64) error {
	return s.WaitShardsCtx(context.Background(), shards, lsn)
}

// WaitShardsCtx is WaitShards honoring ctx, so a disconnected ?wait=1
// client releases its waiter. A fenced server fails waiters whose target
// has not been reached with the fence error (see WaitAppliedCtx).
func (s *Server) WaitShardsCtx(ctx context.Context, shards []int, lsn int64) error {
	for _, i := range shards {
		if i < 0 || i >= len(s.shards) {
			return fmt.Errorf("serve: no shard %d (have %d)", i, len(s.shards))
		}
	}
	reached := func() bool {
		for _, i := range shards {
			if s.shards[i].watermark.Load() < lsn {
				return false
			}
		}
		return true
	}
	for {
		if reached() {
			return nil
		}
		if err := s.fenced(); err != nil {
			return err
		}
		s.waitMu.Lock()
		ch := s.epochCh
		s.waitMu.Unlock()
		if ch == nil {
			return fmt.Errorf("serve: server closed before shards reached %d", lsn)
		}
		if reached() {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
