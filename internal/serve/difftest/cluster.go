package difftest

// The cluster failure matrix: the differential script of Run, executed
// against a replicated pair — a durable leader shipping its WAL to a live
// follower — while a seeded schedule kills the leader, partitions the
// replication link, or fails an fsync under the leader's WAL at arbitrary
// steps. A kill on a healthy link promotes the caught-up follower (the old
// leader's directory rejoins as the new follower and is lineage-reset); a
// kill behind a partition exercises the refusal path — the lagging follower
// REFUSES to promote, because promoting would void acknowledged writes and
// resurrect spent ε — and the old leader restarts from its own directory
// instead. After every transition and at every flush point the surviving
// leader must match both references of checkView exactly, the follower's
// views must match them at each view's own epoch (never past the durable
// horizon), and at quiesce points the follower must be
// byte-identical to the leader: views, per-relation maxima, and ledger
// totals, with replayed releases repeating the recorded noisy value across
// failovers.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsens/internal/mechanism"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/serve/faultfs"
	"tsens/internal/serve/replica"
)

// clusterNode is one simulated machine: a WAL directory on a fault-
// injectable filesystem. Roles (leader/follower) move between nodes as the
// script kills and promotes.
type clusterNode struct {
	name string
	dir  string
	fs   *faultfs.FS
}

// RunCluster executes one scripted replicated-failover run.
func RunCluster(t *testing.T, cfg Config) {
	if cfg.Steps == 0 {
		cfg.Steps = 120
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 2
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s", cfg.Seed, fmt.Sprintf(format, args...))
	}
	const wait = 15 * time.Second

	base := baseDB(rng)
	nodeA := clusterNode{name: "A", dir: t.TempDir(), fs: faultfs.New(nil)}
	nodeB := clusterNode{name: "B", dir: t.TempDir(), fs: faultfs.New(nil)}
	mkOpts := func(n clusterNode) serve.Options {
		return serve.Options{
			Shards:      cfg.Shards,
			Parallelism: cfg.Parallelism,
			BatchSize:   cfg.BatchSize,
			WALDir:      n.dir,
			WALFS:       n.fs,
			// Only the boot checkpoint: a periodic checkpoint racing an armed
			// fsync fault would make the script nondeterministic.
			CheckpointEvery: -1,
		}
	}

	// One simulated network and one simulated clock. The lease store reads
	// the clock, so a kill can age the dead leader's lease out instantly.
	nf := &replica.NetFault{}
	var clockOff atomic.Int64
	clock := func() time.Time { return time.Now().Add(time.Duration(clockOff.Load())) }
	store := replica.NewMemLease(clock)
	const ttl = time.Minute

	leaderNode, followerNode := nodeA, nodeB
	srv, err := serve.New(base, mkOpts(leaderNode))
	if err != nil {
		fatalf("new server: %v", err)
	}
	alive := true
	newLeader := func(s *serve.Server, n clusterNode) *replica.Leader {
		ld, err := replica.NewLeader(s, replica.LeaderOptions{
			Lease: store, Holder: n.name, TTL: ttl,
			Fault: nf, HeartbeatEvery: 20 * time.Millisecond,
		})
		if err != nil {
			fatalf("leader on %s: %v", n.name, err)
		}
		return ld
	}
	ld := newLeader(srv, leaderNode)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	go ld.Serve(ln)
	rebind := func() {
		deadline := time.Now().Add(wait)
		for {
			l, err := net.Listen("tcp", addr)
			if err == nil {
				go ld.Serve(l)
				return
			}
			if time.Now().After(deadline) {
				fatalf("rebinding %s: %v", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	startFollower := func(n clusterNode) *replica.Follower {
		f, err := replica.StartFollower(replica.FollowerOptions{
			Dir: n.dir, Addr: addr, Serve: mkOpts(n), Fault: nf,
			ReconnectMin: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
		})
		if err != nil {
			fatalf("follower on %s: %v", n.name, err)
		}
		return f
	}
	fol := startFollower(followerNode)
	defer func() {
		if fol != nil {
			fol.Close()
		}
		if ld != nil {
			ld.Close()
		}
		if alive {
			srv.CloseNow()
		}
	}()

	var (
		live       = newModel(base)
		cursor     = newModel(base)
		log        []relation.Update
		registered = map[string]candidate{}
		spent      = map[string]float64{}
		lastNoisy  = map[string]float64{}
		names      = base.Names()
	)

	register := func(c candidate) {
		qc := serve.QueryConfig{ID: c.id, Query: c.mk(), Private: c.private, Budget: c.budget}
		if c.private != "" {
			qc.Release = mechanism.TSensDPConfig{Epsilon: 1, Bound: 64}
		}
		if _, _, err := srv.Register(qc); err != nil {
			fatalf("register %s: %v", c.id, err)
		}
		registered[c.id] = c
		delete(spent, c.id)
		delete(lastNoisy, c.id)
	}
	register(candidates()[0])

	mkBatch := func() []relation.Update {
		n := 1 + rng.Intn(8)
		batch := make([]relation.Update, 0, n)
		for i := 0; i < n; i++ {
			rel := names[rng.Intn(len(names))]
			rows := live.db.Relation(rel).Rows
			switch {
			case len(rows) > 0 && rng.Intn(100) < 35:
				batch = append(batch, relation.Update{Rel: rel, Row: rows[rng.Intn(len(rows))].Clone()})
			case rng.Intn(100) < 10:
				batch = append(batch, relation.Update{Rel: rel, Row: relation.Tuple{99, 99}})
			default:
				batch = append(batch, relation.Update{
					Rel: rel, Insert: true,
					Row: relation.Tuple{int64(rng.Intn(keyDom)), int64(rng.Intn(valDom))},
				})
			}
		}
		return batch
	}

	verify := func(when string) {
		t.Helper()
		total := int64(len(log))
		if err := srv.WaitApplied(total); err != nil {
			fatalf("%s: wait: %v", when, err)
		}
		cursor.advance(log[cursor.applied:total])
		if st := srv.Stats(); st.Epoch != total || st.Skipped != cursor.skipped {
			fatalf("%s: stats %+v, model: epoch %d, skipped %d", when, st, total, cursor.skipped)
		}
		for id, c := range registered {
			v, err := srv.View(id)
			if err != nil {
				fatalf("%s: view %s: %v", when, id, err)
			}
			if v.Epoch != total {
				fatalf("%s: view %s at epoch %d after waiting for %d", when, id, v.Epoch, total)
			}
			if err := checkView(c.mk(), cursor.db, v); err != nil {
				fatalf("%s: epoch %d, query %s: %v", when, total, id, err)
			}
		}
		for _, info := range srv.Queries() {
			if want, ok := spent[info.ID]; ok && math.Abs(info.Spent-want) > 1e-9 {
				fatalf("%s: query %s ledger spent %g, model %g", when, info.ID, info.Spent, want)
			}
		}
	}

	// verifyFollower checks the invariants that hold at ANY instant of the
	// follower's life: nothing applied past the leader's durable horizon, and
	// every served view exact against both references of checkView at the
	// view's OWN epoch (the follower lags; it must never be wrong).
	verifyFollower := func(when string) {
		t.Helper()
		fsrv := fol.Server()
		if fsrv == nil {
			return
		}
		horizon := int64(len(log)) // SyncEvery=1: every acked record is durable
		if ap := fsrv.Stats().Appended; ap > horizon {
			fatalf("%s: follower applied %d past the durable horizon %d", when, ap, horizon)
		}
		for _, info := range fsrv.Queries() {
			c, ok := registered[info.ID]
			if !ok {
				continue // its unregistration simply has not replicated yet
			}
			v, err := fsrv.View(info.ID)
			if err != nil {
				continue
			}
			if v.Epoch > horizon {
				fatalf("%s: follower view %s at epoch %d past the durable horizon %d", when, info.ID, v.Epoch, horizon)
			}
			m := newModel(base)
			m.advance(log[:v.Epoch])
			if err := checkView(c.mk(), m.db, v); err != nil {
				fatalf("%s: follower %s at epoch %d: %v", when, info.ID, v.Epoch, err)
			}
		}
	}

	// quiesce drains replication and asserts the follower identical to the
	// leader: every view field-for-field, every ledger total bit-for-bit.
	quiesce := func(when string) {
		t.Helper()
		verify(when)
		total := int64(len(log))
		lg, li := srv.WAL().DurablePosition()
		deadline := time.Now().Add(wait)
		var fsrv *serve.Server
		for {
			fsrv = fol.Server()
			fg, fi := fol.Position()
			if fsrv != nil && fg == lg && fi == li && fsrv.Epoch() >= total {
				settled := true
				for id := range registered {
					if v, err := fsrv.View(id); err != nil || v.Epoch != total {
						settled = false
						break
					}
				}
				if settled && fsrv.Stats().Queries == len(registered) {
					break
				}
			}
			if time.Now().After(deadline) {
				fatalf("%s: follower never caught up to epoch %d", when, total)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for id := range registered {
			lv, err := srv.View(id)
			if err != nil {
				fatalf("%s: leader view %s: %v", when, id, err)
			}
			fv, err := fsrv.View(id)
			if err != nil {
				fatalf("%s: follower view %s: %v", when, id, err)
			}
			if fv.Epoch != lv.Epoch || fv.Count != lv.Count || fv.LS.LS != lv.LS.LS {
				fatalf("%s: follower view %s (epoch %d, %d, %d) != leader (epoch %d, %d, %d)",
					when, id, fv.Epoch, fv.Count, fv.LS.LS, lv.Epoch, lv.Count, lv.LS.LS)
			}
			for rel, tr := range lv.LS.PerRelation {
				got := fv.LS.PerRelation[rel]
				if got == nil || got.Sensitivity != tr.Sensitivity {
					fatalf("%s: follower %s relation %s: %v, leader %d", when, id, rel, got, tr.Sensitivity)
				}
			}
		}
		fspent := map[string]float64{}
		for _, info := range fsrv.Queries() {
			fspent[info.ID] = info.Spent
		}
		for _, info := range srv.Queries() {
			if fspent[info.ID] != info.Spent { // replicated spends must be bit-identical
				fatalf("%s: follower ledger %s spent %v, leader %v", when, info.ID, fspent[info.ID], info.Spent)
			}
		}
	}

	// swapRoles installs promoted as the new leader and rejoins the old
	// leader's directory as the new follower (its stale lineage is reset on
	// first contact).
	swapRoles := func(promoted *serve.Server) {
		leaderNode, followerNode = followerNode, leaderNode
		srv = promoted
		alive = true
		ld = newLeader(srv, leaderNode)
		rebind()
		fol.Close()
		fol = startFollower(followerNode)
	}

	restartLeader := func(step int) {
		// The machine that died restarts from its own directory: unsynced
		// bytes evaporate (CrashAndRestore), everything acknowledged is there.
		if err := leaderNode.fs.CrashAndRestore(); err != nil {
			fatalf("step %d: crash restore: %v", step, err)
		}
		re, err := serve.New(nil, mkOpts(leaderNode))
		if err != nil {
			fatalf("step %d: leader restart: %v", step, err)
		}
		srv = re
		alive = true
		ld = newLeader(srv, leaderNode)
		rebind()
	}

	partitioned := false
	kill := func(step int) {
		t.Helper()
		total := int64(len(log))
		// The horizon covers every acknowledged record (SyncEvery=1: acked
		// means durable), registrations and releases included, not just the
		// update LSN.
		lg, li := srv.WAL().DurablePosition()
		if !partitioned {
			// A healthy link: let the follower fully catch up to that
			// horizon, then kill. This is the failover where promotion must
			// succeed and nothing acknowledged may be lost.
			deadline := time.Now().Add(wait)
			for {
				fg, fi := fol.Position()
				if fol.Server() != nil && fg == lg && fi == li {
					break
				}
				if time.Now().After(deadline) {
					fatalf("step %d: follower never replicated to (%d,%d)", step, lg, li)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		ld.Close()
		srv.CloseNow()
		alive = false
		clockOff.Add(int64(ttl + time.Second)) // even an unreleased lease ages out

		promoted, err := fol.Promote(replica.PromoteOptions{
			MinLSN: total, MinGen: lg, MinIdx: li,
			Lease: store, Holder: followerNode.name, TTL: ttl,
		})
		switch {
		case err == nil:
			if partitioned {
				// Legal: the follower had mirrored every record acknowledged
				// before the partition, and none was acknowledged during it.
				t.Logf("seed %d: step %d: partitioned follower was caught up; promoted", cfg.Seed, step)
			}
			swapRoles(promoted)
		case strings.Contains(err.Error(), "refusing promotion"):
			if !partitioned {
				fatalf("step %d: caught-up follower refused promotion: %v", step, err)
			}
			// The refusal path: the follower is short of the acknowledged
			// horizon, so the only correct move is restarting the old leader
			// from its own directory. The stopped follower rejoins fresh.
			fol.Close()
			restartLeader(step)
			fol = startFollower(followerNode)
		default:
			fatalf("step %d: promote: %v", step, err)
		}
		infos := srv.Queries()
		if len(infos) != len(registered) {
			fatalf("step %d: survivor has %d queries, want %d (%+v)", step, len(infos), len(registered), infos)
		}
		for _, info := range infos {
			if _, ok := registered[info.ID]; !ok {
				fatalf("step %d: survivor serves unregistered query %q", step, info.ID)
			}
		}
		verify(fmt.Sprintf("step %d post-failover", step))
	}

	fsyncFault := func(step int) {
		t.Helper()
		leaderNode.fs.FailNthSync(1)
		if _, _, err := srv.Append(mkBatch()); !errors.Is(err, faultfs.ErrInjected) {
			fatalf("step %d: append with failing fsync: %v, want ErrInjected", step, err)
		}
		if got := srv.Stats().Appended; got != int64(len(log)) {
			fatalf("step %d: refused append advanced the LSN to %d, want %d", step, got, len(log))
		}
		leaderNode.fs.Disarm()
		// The WAL is sticky after a write error: the leader process restarts
		// from its own directory (fresh lineage; the follower resets).
		ld.Close()
		srv.CloseNow()
		alive = false
		clockOff.Add(int64(ttl + time.Second))
		restartLeader(step)
		verify(fmt.Sprintf("step %d post-fsync-fault", step))
	}

	// The fault schedule is part of the seeded script: two partition windows,
	// two leader kills, one fsync fault, at distinct steps.
	events := map[int]string{}
	addEvent := func(kind string) {
		for {
			s := 1 + rng.Intn(cfg.Steps-1)
			if events[s] == "" {
				events[s] = kind
				return
			}
		}
	}
	addEvent("partition")
	addEvent("partition")
	addEvent("kill")
	addEvent("kill")
	addEvent("fsync")
	healAt := -1

	for step := 0; step < cfg.Steps; step++ {
		if step == healAt {
			nf.Partition(false)
			partitioned = false
			healAt = -1
		}
		switch events[step] {
		case "partition":
			heal := step + 1 + rng.Intn(5) // drawn unconditionally: the script must not depend on state
			if !partitioned {
				nf.Partition(true)
				partitioned = true
				healAt = heal
			}
		case "kill":
			kill(step)
		case "fsync":
			fsyncFault(step)
		}
		switch op := rng.Intn(100); {
		case op < 50:
			batch := mkBatch()
			if _, _, err := srv.Append(batch); err != nil {
				fatalf("step %d: append: %v", step, err)
			}
			log = append(log, batch...)
			live.advance(batch)
		case op < 65:
			verify(fmt.Sprintf("step %d flush", step))
			verifyFollower(fmt.Sprintf("step %d flush", step))
		case op < 75:
			for _, c := range candidates() {
				if _, ok := registered[c.id]; !ok {
					register(c)
					break
				}
			}
		case op < 85:
			if len(registered) > 1 {
				ids := make([]string, 0, len(registered))
				for id := range registered {
					ids = append(ids, id)
				}
				sort.Strings(ids) // deterministic pick
				id := ids[rng.Intn(len(ids))]
				if err := srv.Unregister(id); err != nil {
					fatalf("step %d: unregister %s: %v", step, id, err)
				}
				delete(registered, id)
			}
		default:
			c, ok := registered["priv"]
			if !ok {
				continue
			}
			res, err := srv.Release("priv", rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				if !errors.Is(err, mechanism.ErrBudgetExhausted) {
					fatalf("step %d: release: %v", step, err)
				}
				if c.budget-spent["priv"] >= 1-1e-9 {
					fatalf("budget refused with %g of %g spent", spent["priv"], c.budget)
				}
				continue
			}
			spent["priv"] += res.Spent
			if math.Abs(res.TotalSpent-spent["priv"]) > 1e-9 {
				fatalf("release total %g, model %g", res.TotalSpent, spent["priv"])
			}
			if res.Fresh {
				lastNoisy["priv"] = res.Run.Noisy
			} else if want, ok := lastNoisy["priv"]; ok && res.Run.Noisy != want {
				// Replayed releases must repeat the recorded noisy value —
				// across failovers too (the cached run rides the WAL stream).
				fatalf("replayed release noisy %g, want recorded %g", res.Run.Noisy, want)
			}
		}
	}

	// Final: heal, quiesce (follower byte-identical), then one last clean
	// kill-the-leader failover and a full verification of the survivor.
	if partitioned {
		nf.Partition(false)
		partitioned = false
	}
	quiesce("final quiesce")
	kill(cfg.Steps)
	quiesce("post-final-failover")
}
