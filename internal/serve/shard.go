package serve

// The sharded write path. Registered queries with equal plan keys (see
// planKey) share one incremental session, owned by a single designated
// shard: a stable hash of the key, so equal plans land together and
// distinct ones spread over the shards. Each shard owns a long-lived writer
// goroutine and the sessions of its queries, and every shard is fed every
// valid batch.
//
// The coordinator folds each batch into the master rows, pushes the round
// onto every shard's unbounded FIFO queue, and moves on without waiting for
// any shard. Register and Unregister put their changes on the same FIFO,
// under the same lock, so a shard reaches a registration exactly at the cut
// the registration snapshotted. Each shard drains its queue at its own
// pace: after stepping its sessions through a round it builds and stores
// each owned query's view at the round's cut, then advances its watermark
// and tries to move the published epoch up to the joined minimum of all
// watermarks. A read is one atomic load of the query's view. The cut
// contract (see View):
//
//   - every view is one exact cut;
//   - a query's views never move backwards;
//   - a query's first view, taken at the fold frontier when it registered,
//     may be ahead of the joined cut until every other shard catches up;
//   - the published epoch never passes the joined cut
//     (TestServeEpochPublishedNeverAheadOfJoined).
//
// A stalled shard therefore stalls only the queries it owns, and the
// registrations and unregistrations of its plans; everything else keeps
// advancing (TestServeAsyncStalledShardIndependence).

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/incremental"
	"tsens/internal/obs"
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

// change is the registration (snap set) or the drop (snap nil) of one
// query, queued on its shard's FIFO at the fold frontier cut. It is not a
// round: the shard handles it between rounds and moves no watermark.
type change struct {
	sq   *servedQuery
	snap *relation.Database // the relations sq reads at cut
	cut  int64

	// Set by the shard before it closes done.
	first *View
	err   error
	done  chan struct{}
}

// task is one entry of a shard's FIFO: a round or a change.
type task struct {
	rd *round
	ch *change
}

// shard owns one slice of the write path: a writer goroutine (run), the
// sessions of its plans, their plan store, and the watermark of log
// entries it has folded.
type shard struct {
	id    int
	patch *obs.Histogram // per-round patch latency for this shard

	// plans are the sessions the shard steps, one per plan key, in
	// registration order. A failed session leaves at the end of its round,
	// so a later registration of its plan opens a fresh one. Only the
	// shard's goroutine touches them (plans.go).
	plans []*plan

	// store is the shard's sharing domain: every session the shard opens is
	// opened in it (plans.go). Only the shard's goroutine replaces it (when
	// it is poisoned); Stats readers load it from any goroutine.
	store atomic.Pointer[incremental.PlanStore]

	// mu/cond/q is the shard's task queue: unbounded FIFO so a slow shard
	// never backpressures the coordinator onto its siblings (a bounded
	// queue would re-couple the shards). Memory is bounded by the
	// acknowledged backlog, which Append already admits.
	mu      sync.Mutex
	cond    *sync.Cond
	q       []task
	qclosed bool

	// watermark is the LSN through which every round handed to this shard
	// has been folded into its sessions and published in their views.
	watermark atomic.Int64

	// gate, when set, runs at the start of every round — a test hook that
	// lets the hostile-scheduler tests pause one shard mid-batch.
	gate atomic.Pointer[func(shard int)]
}

// enqueue pushes one task onto the shard's queue, or reports false once the
// queue is closed and nothing would run it.
func (sh *shard) enqueue(t task) bool {
	sh.mu.Lock()
	ok := !sh.qclosed
	if ok {
		sh.q = append(sh.q, t)
	}
	sh.mu.Unlock()
	sh.cond.Signal()
	return ok
}

// next blocks for the next queued task, or reports false once the queue is
// closed and fully drained — queued rounds are already folded into the
// master, so they always finish.
func (sh *shard) next() (task, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(sh.q) == 0 && !sh.qclosed {
		sh.cond.Wait()
	}
	if len(sh.q) == 0 {
		return task{}, false
	}
	t := sh.q[0]
	sh.q[0] = task{}
	sh.q = sh.q[1:]
	return t, true
}

func (sh *shard) closeQueue() {
	sh.mu.Lock()
	sh.qclosed = true
	sh.mu.Unlock()
	sh.cond.Broadcast()
}

// run is the shard's writer loop: handle each change, and step the
// sessions through each round, publish their queries' views, advance the
// watermark, wake waiters.
func (sh *shard) run(s *Server) {
	defer s.wg.Done()
	epochGauge := s.m.shardEpoch.With(shardLabel(sh.id))
	for {
		t, ok := sh.next()
		if !ok {
			return
		}
		if c := t.ch; c != nil {
			if c.snap != nil {
				c.first, c.err = sh.register(s, c)
			} else {
				sh.drop(s, c.sq)
			}
			close(c.done)
			continue
		}
		rd := t.rd
		if gate := sh.gate.Load(); gate != nil {
			(*gate)(sh.id)
		}
		start := time.Now()
		stepGroup(sh.plans, rd)
		sh.patch.ObserveSince(start)
		publishStart := time.Now()
		for _, p := range sh.plans {
			for _, sq := range p.queries {
				sq.publish(rd.cut, s.opts.DriftFraction)
			}
		}
		s.m.publishView.ObserveSince(publishStart)
		// The round no longer touches any session: drop the failed ones
		// before the watermark lets waiters through.
		sh.endRound(s)
		sh.watermark.Store(rd.cut)
		epochGauge.Set(float64(rd.cut))
		s.advanceEpoch()
		if rd.pending.Add(-1) == 0 {
			s.finishRound(rd)
		}
		s.notify()
	}
}

// stepGroup applies one round to the shard's sessions, one update at a time
// across all of them, through Insert and Delete (a batch handed to Apply
// could take the bulk rebuild, which moves a session out of the store): the
// store keeps the rows and node deltas of one stream position only, so
// every subscriber must sit at the same position before the next update's
// deltas are computed (a partially sharing session's private delta-joins
// also read shared operand tables, which therefore must not have advanced
// past the update at hand).
func stepGroup(plans []*plan, rd *round) {
	if len(rd.valid) == 0 {
		return // the cached outputs still describe the unchanged sessions
	}
	for _, up := range rd.valid {
		for _, p := range plans {
			if p.err != nil {
				continue // a propagation error poisons the store; peers fail fast below
			}
			if up.Insert {
				p.err = p.sess.Insert(up.Rel, up.Row)
			} else {
				p.err = p.sess.Delete(up.Rel, up.Row)
			}
		}
	}
	for _, p := range plans {
		p.refresh()
	}
}

// refresh recomputes the cached count and LS result from the live session:
// once per round, however many queries read them. Callers hold the session
// quiescent (its shard, between updates).
func (p *plan) refresh() {
	if p.err != nil {
		return
	}
	p.count = p.sess.Count()
	p.res, p.err = p.sess.LS()
}

// publish builds the query's view at cut from its plan's cached outputs and
// stores it: the only writer of sq.view, run by the owning shard. The
// sensitivity vector carries over by reference while the count stays within
// the drift fraction of the vector's baseline; otherwise it is recomputed
// by one δ(t) scan of the private relation. A failed query keeps the view
// that first reported the failure.
func (sq *servedQuery) publish(cut int64, driftFrac float64) {
	prev := sq.view.Load()
	if prev != nil && prev.Err != nil {
		return
	}
	p := sq.plan
	err := p.err
	v := &View{Epoch: cut}
	if err == nil {
		v.Count, v.LS = p.count, p.res
		if sq.private != "" {
			if prev != nil && prev.Sens != nil &&
				driftFrac >= 0 && !drifted(v.Count, prev.SensCount, driftFrac) {
				v.Sens, v.SensEpoch, v.SensCount = prev.Sens, prev.SensEpoch, prev.SensCount
			} else {
				v.Sens, err = sq.sensitivities()
				v.SensEpoch, v.SensCount = cut, v.Count
			}
		}
	}
	if err != nil {
		v = &View{Epoch: cut, Err: err}
	}
	sq.view.Store(v)
}

// sensitivities returns the sorted per-tuple sensitivity vector of the
// private relation, answered from the session's maintained multiplicity
// tables.
func (sq *servedQuery) sensitivities() ([]int64, error) {
	sess := sq.plan.sess
	fn, err := sess.SensitivityFn(sq.private)
	if err != nil {
		return nil, err
	}
	rows := sess.Rows(sq.private)
	sens := make([]int64, len(rows))
	for i, row := range rows {
		sens[i] = fn(row)
	}
	sort.Slice(sens, func(i, j int) bool { return sens[i] < sens[j] })
	return sens, nil
}

// keyShard is the designated owner of a plan's session: a stable hash of
// the plan key, so equal plans land on one shard and share its session,
// while distinct ones spread across shards instead of piling onto shard 0.
// Recovery re-registers the same plans, so the assignment survives
// restarts.
func (s *Server) keyShard(key string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return relation.Shard(int64(h.Sum64()), len(s.shards))
}

// NumShards returns the number of write-path shards.
func (s *Server) NumShards() int { return len(s.shards) }
