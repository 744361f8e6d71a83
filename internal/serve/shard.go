package serve

// The sharded write path. Every registered query is one incremental
// session owned by a single designated shard (a stable hash of its query
// text, so queries with identical text land together and can share a plan
// store); each shard owns a long-lived writer goroutine and the sessions of
// its queries, and every shard is fed every valid batch.
//
// The coordinator folds each batch into the master rows, pushes the round
// onto every shard's unbounded FIFO queue, and moves on without waiting for
// any shard. Each shard drains its queue at its own pace: after stepping
// its sessions through a round it builds and stores each owned query's view
// at the round's cut, then advances its watermark and tries to move the
// published epoch up to the joined minimum of all watermarks. A read is one
// atomic load of the query's view. The cut contract (see View):
//
//   - every view is one exact cut;
//   - a query's views never move backwards;
//   - a query's first view, taken by Register at the fold frontier, may be
//     ahead of the joined cut until the query's shard catches up;
//   - the published epoch never passes the joined cut
//     (TestServeEpochPublishedNeverAheadOfJoined).
//
// A stalled shard therefore stalls only the queries it owns; everything
// else keeps advancing (TestServeAsyncStalledShardIndependence).

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/incremental"
	"tsens/internal/obs"
	"tsens/internal/par"
	"tsens/internal/relation"
)

// round is one drain step: the validated batch and the epoch it advances
// the server to. All shards process the same round; pending counts the
// shards still to fold it, and the last one finishes the round's traces.
type round struct {
	valid []relation.Update
	cut   int64

	// Trace plumbing: the batch's in-flight traces plus the coordinator-side
	// timings (round start, and the moment the folded round was queued),
	// stamped by whichever shard drains the round last (pending hits zero).
	pending  atomic.Int32
	btraces  []*obs.ActiveTrace
	start    time.Time
	queued   time.Time
	batchLen int
}

// shard owns one slice of the write path: a writer goroutine (run), the
// queries whose sessions it steps, their plan store, and the watermark of
// log entries it has folded.
type shard struct {
	id      int
	queries []*servedQuery
	patch   *obs.Histogram // per-round patch latency for this shard

	// store is the shard's sharing domain: every session the shard owns
	// moves into it once registered (plans.go).
	store *incremental.PlanStore

	// umu guards queries: Register/Unregister mutate the slice while a round
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

	// retired holds queries stripped by Unregister while the shard was busy;
	// endRound hands them back for release once the round that may still
	// step them has finished. Guarded by mu, together with applying, so no
	// retired session outlives the round that made its shard busy.
	retired []*servedQuery

	// watermark is the LSN through which every round handed to this shard
	// has been folded into its sessions and published in their views.
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

// snapshotQueries copies the query list for one round under umu.
func (sh *shard) snapshotQueries() []*servedQuery {
	sh.umu.Lock()
	sqs := append([]*servedQuery(nil), sh.queries...)
	sh.umu.Unlock()
	return sqs
}

// run is the shard's writer loop: step the owned sessions through each
// round, publish their views, advance the watermark, wake waiters.
func (sh *shard) run(s *Server) {
	defer s.wg.Done()
	epochGauge := s.m.shardEpoch.With(shardLabel(sh.id))
	for {
		rd := sh.next()
		if rd == nil {
			return
		}
		if gate := sh.gate.Load(); gate != nil {
			(*gate)(sh.id)
		}
		sqs := sh.snapshotQueries()
		start := time.Now()
		// Sessions subscribed to the same plan store patch shared tables and
		// step sequentially within one group; all other sessions share no
		// mutable state and fan out. Plain par.Do, not pool.Do: a session
		// rebuild inside the patch borrows the pool itself, and pool workers
		// must not block on nested pool waits.
		groups := planGroups(sqs)
		_ = par.Do(s.opts.Parallelism, len(groups), func(i int) error {
			stepGroup(groups[i], rd)
			return nil
		})
		sh.patch.ObserveSince(start)
		publishStart := time.Now()
		for _, sq := range sqs {
			if rd.cut > sq.installCut { // Register's catch-up replayed the rest
				sq.publish(rd.cut, s.opts.DriftFraction)
			}
		}
		s.m.publishView.ObserveSince(publishStart)
		// The round no longer touches any session: adopt what Register
		// parked or a rebuild left outside the shard's store, and release
		// what Unregister retired meanwhile, before the watermark lets
		// waiters through.
		if adopted, retired := sh.endRound(s, rd.cut); adopted || len(retired) > 0 {
			for _, sq := range retired {
				sq.sess.ReleaseShared()
			}
			s.refreshPlanGauges()
		}
		sh.watermark.Store(rd.cut)
		epochGauge.Set(float64(rd.cut))
		s.advanceEpoch()
		if rd.pending.Add(-1) == 0 {
			s.finishRound(rd)
		}
		s.notify()
	}
}

// stepGroup applies one round to a group of queries whose sessions
// subscribe to the same plan store (or to a singleton, where it is plain
// step). With several subscribers, updates interleave one at a time across
// the whole group: the store's lead/follower discipline requires every
// subscriber to sit at the same position before the next update's deltas
// are computed, because a partially-sharing session's private delta-joins
// read shared operand tables, which therefore must not have advanced past
// the update at hand.
func stepGroup(g []*servedQuery, rd *round) {
	if len(g) == 1 {
		g[0].step(rd)
		return
	}
	live := g[:0:0]
	for _, sq := range g {
		if sq.err == nil && rd.cut > sq.installCut {
			live = append(live, sq)
		}
	}
	if len(rd.valid) == 0 || len(live) == 0 {
		return
	}
	one := make([]relation.Update, 1)
	for _, up := range rd.valid {
		one[0] = up
		for _, sq := range live {
			if sq.err != nil {
				continue // a propagation error poisons the store; peers fail fast below
			}
			if err := sq.sess.Apply(one); err != nil {
				sq.err = err
			}
		}
	}
	for _, sq := range live {
		sq.refresh()
	}
}

// step applies the round's valid batch to the query's session and
// refreshes its cached count/LS. A query that previously failed stays
// failed (its failed view persists); a round with no valid update keeps
// the cached outputs, which still describe the unchanged session.
func (sq *servedQuery) step(rd *round) {
	if sq.err != nil || rd.cut <= sq.installCut || len(rd.valid) == 0 {
		return
	}
	if err := sq.sess.Apply(rd.valid); err != nil {
		sq.err = err
		return
	}
	sq.refresh()
}

// refresh recomputes the cached count and LS result from the live session.
// Callers hold the session quiescent (owning shard inside a round, or
// Register before install).
func (sq *servedQuery) refresh() {
	if sq.err != nil {
		return
	}
	sq.count = sq.sess.Count()
	sq.res, sq.err = sq.sess.LS()
}

// publish builds the query's view at cut from the session's cached outputs
// and stores it: the only writer of sq.view, run by the owning shard after
// a round or by Register before the query is installed. The sensitivity
// vector carries over by reference while the session has not rebuilt and
// the count stays within the drift fraction of the vector's baseline;
// otherwise it is recomputed by one δ(t) scan of the private relation. A
// failed query keeps the view that first reported the failure.
func (sq *servedQuery) publish(cut int64, driftFrac float64) {
	prev := sq.view.Load()
	if prev != nil && prev.Err != nil {
		return
	}
	v := &View{Epoch: cut}
	if sq.err == nil {
		v.Count, v.LS, v.Rebuilds = sq.count, sq.res, sq.sess.Rebuilds()
		if sq.private != "" {
			if prev != nil && prev.Sens != nil && prev.Rebuilds == v.Rebuilds &&
				driftFrac >= 0 && !drifted(v.Count, prev.SensCount, driftFrac) {
				v.Sens, v.SensEpoch, v.SensCount = prev.Sens, prev.SensEpoch, prev.SensCount
			} else {
				v.Sens, sq.err = sq.sensitivities()
				v.SensEpoch, v.SensCount = cut, v.Count
			}
		}
	}
	if sq.err != nil {
		v = &View{Epoch: cut, Err: sq.err}
	}
	sq.view.Store(v)
}

// sensitivities returns the sorted per-tuple sensitivity vector of the
// private relation, answered from the session's maintained multiplicity
// tables.
func (sq *servedQuery) sensitivities() ([]int64, error) {
	fn, err := sq.sess.SensitivityFn(sq.private)
	if err != nil {
		return nil, err
	}
	rows := sq.sess.Rows(sq.private)
	sens := make([]int64, len(rows))
	for i, row := range rows {
		sens[i] = fn(row)
	}
	sort.Slice(sens, func(i, j int) bool { return sens[i] < sens[j] })
	return sens, nil
}

// queryShard is the designated owner of a query's session: a stable hash
// of the query text, so queries with identical text land on one shard and
// share its plan store, while distinct ones spread across shards instead of
// piling onto shard 0. Recovery re-registers the same text, so the assignment
// survives restarts.
func (s *Server) queryShard(text string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(text))
	return relation.Shard(int64(h.Sum64()), len(s.shards))
}

// NumShards returns the number of write-path shards.
func (s *Server) NumShards() int { return len(s.shards) }
