package replica

import (
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsens/internal/mechanism"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/workload"
)

// --- fixtures (mirroring internal/serve's test helpers) ---

func testDB(t *testing.T, size, dom int, seed int64, names ...string) *relation.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var rels []*relation.Relation
	for _, name := range names {
		rows := make([]relation.Tuple, size)
		for i := range rows {
			rows[i] = relation.Tuple{int64(rng.Intn(dom)), int64(rng.Intn(dom))}
		}
		r, err := relation.New(name, []string{name + "_x", name + "_y"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func pathQuery(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.New("path", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func serveOpts(dir string) serve.Options {
	return serve.Options{Parallelism: 2, BatchSize: 4, Shards: 2, WALDir: dir}
}

// cluster bundles one leader and one follower wired over loopback TCP.
type cluster struct {
	srv      *serve.Server
	leader   *Leader
	addr     string
	follower *Follower
}

func startCluster(t *testing.T, db *relation.Database, ldOpts LeaderOptions, flOpts FollowerOptions) *cluster {
	t.Helper()
	leaderDir := t.TempDir()
	srv, err := serve.New(db, serveOpts(leaderDir))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLeader(srv, ldOpts)
	if err != nil {
		srv.CloseNow()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ld.Serve(ln)

	if flOpts.Dir == "" {
		flOpts.Dir = t.TempDir()
	}
	flOpts.Addr = ln.Addr().String()
	flOpts.Serve = serveOpts(flOpts.Dir)
	fl, err := StartFollower(flOpts)
	if err != nil {
		ld.Close()
		srv.CloseNow()
		t.Fatal(err)
	}
	return &cluster{srv: srv, leader: ld, addr: flOpts.Addr, follower: fl}
}

// waitFollowerEpoch polls until the follower's passive server exists and has
// published epoch lsn.
func waitFollowerEpoch(t *testing.T, f *Follower, lsn int64) *serve.Server {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv := f.Server(); srv != nil && srv.Epoch() >= lsn {
			return srv
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never reached epoch %d", lsn)
	return nil
}

// waitFollowerPosition waits until the follower has mirrored every record
// before the leader's WAL position (gen, idx). The follower applies a record
// to its live server only after mirroring it, so a caller that reads served
// state waits for that too (waitFollowerEpoch).
func waitFollowerPosition(t *testing.T, f *Follower, gen, idx int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fg, fi := f.Position(); f.Server() != nil && fg == gen && fi == idx {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never replicated to (%d,%d)", gen, idx)
}

func registerPath(t *testing.T, srv *serve.Server) string {
	t.Helper()
	id, _, err := srv.Register(serve.QueryConfig{
		ID:      "pq",
		Query:   pathQuery(t),
		Private: "R2",
		Release: mechanism.TSensDPConfig{Epsilon: 1, Bound: 64},
		Budget:  5,
		Drift:   1000, // huge gate: later releases replay the cached one
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// --- lease stores ---

func TestMemLeaseSemantics(t *testing.T) {
	var nowNS atomic.Int64
	clock := func() time.Time { return time.Unix(0, nowNS.Load()) }
	m := NewMemLease(clock)

	term, err := m.Acquire("a", time.Second)
	if err != nil || term != 1 {
		t.Fatalf("first acquire: term %d, err %v", term, err)
	}
	if _, err := m.Acquire("b", time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("contending acquire: %v, want ErrLeaseHeld", err)
	}
	if err := m.Renew("a", term, time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := m.Renew("a", term+7, time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("renew under wrong term: %v, want ErrLeaseHeld", err)
	}
	// Re-acquire by the same holder is allowed and bumps the term.
	if term2, err := m.Acquire("a", time.Second); err != nil || term2 != 2 {
		t.Fatalf("re-acquire: term %d, err %v", term2, err)
	}

	nowNS.Add(int64(2 * time.Second)) // expire
	if err := m.Renew("a", 2, time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("renew of expired lease: %v, want ErrLeaseHeld", err)
	}
	term3, err := m.Acquire("b", time.Second)
	if err != nil || term3 != 3 {
		t.Fatalf("acquire after expiry: term %d, err %v", term3, err)
	}
	// The deposed holder can no longer renew even inside b's window.
	if err := m.Renew("a", 2, time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("deposed renew: %v, want ErrLeaseHeld", err)
	}
	if err := m.Release("b", term3); err != nil {
		t.Fatal(err)
	}
	if term4, err := m.Acquire("a", time.Second); err != nil || term4 != 4 {
		t.Fatalf("acquire after release: term %d, err %v", term4, err)
	}
}

func TestFileLeaseRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease")
	fl := NewFileLease(path)
	term, err := fl.Acquire("a", time.Minute)
	if err != nil || term != 1 {
		t.Fatalf("acquire: term %d, err %v", term, err)
	}
	if _, err := fl.Acquire("b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("contending acquire: %v, want ErrLeaseHeld", err)
	}
	if err := fl.Renew("a", term, time.Minute); err != nil {
		t.Fatalf("renew: %v", err)
	}
	got, ok, err := fl.Get()
	if err != nil || !ok || got.Holder != "a" || got.Term != term {
		t.Fatalf("get: %+v ok=%v err=%v", got, ok, err)
	}
	if err := fl.Release("a", term); err != nil {
		t.Fatal(err)
	}
	// Released = expired: the next holder acquires at the next term, and the
	// store survives a fresh handle (it is a file, not process state).
	term2, err := NewFileLease(path).Acquire("b", time.Minute)
	if err != nil || term2 != term+1 {
		t.Fatalf("acquire after release: term %d, err %v", term2, err)
	}
}

// --- replication ---

// TestReplicationCatchUp is the tentpole happy path: a follower joining an
// already-running leader resyncs from the reset checkpoint, tails the live
// stream, and serves views identical to the leader's — without ever running
// ahead of the leader's durable horizon.
func TestReplicationCatchUp(t *testing.T) {
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	cl := startCluster(t, db, LeaderOptions{}, FollowerOptions{})
	defer func() { cl.follower.Close(); cl.leader.Close(); cl.srv.CloseNow() }()

	id := registerPath(t, cl.srv)
	stream := workload.UpdateStream(db, 40, 0.4, 7)
	_, to, err := cl.srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	rel, err := cl.srv.Release(id, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}

	fsrv := waitFollowerEpoch(t, cl.follower, to)
	lv, err := cl.srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := fsrv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Epoch != lv.Epoch || fv.Count != lv.Count || fv.LS.LS != lv.LS.LS {
		t.Fatalf("follower view (epoch %d, %d, %d) != leader view (epoch %d, %d, %d)",
			fv.Epoch, fv.Count, fv.LS.LS, lv.Epoch, lv.Count, lv.LS.LS)
	}
	if fa, la := fsrv.Stats().Appended, cl.srv.Stats().Appended; fa > la {
		t.Fatalf("follower appended %d ran ahead of leader %d", fa, la)
	}
	// The replicated ledger carries the leader's spend: the follower knows ε
	// was spent (it must survive a promotion), visible via its stats.
	if fs := fsrv.Stats(); fs.Queries != 1 {
		t.Fatalf("follower stats %+v, want the registered query", fs)
	}
	_ = rel
}

// TestFollowerReconnectResume partitions the replication link mid-stream and
// heals it: the follower reconnects, handshakes with its mirror position,
// and resumes the SAME lineage (no reset) to full catch-up.
func TestFollowerReconnectResume(t *testing.T) {
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	nf := &NetFault{}
	cl := startCluster(t, db, LeaderOptions{Fault: nf, HeartbeatEvery: 20 * time.Millisecond},
		FollowerOptions{Fault: nf, ReconnectMin: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond})
	defer func() { cl.follower.Close(); cl.leader.Close(); cl.srv.CloseNow() }()

	id := registerPath(t, cl.srv)
	stream := workload.UpdateStream(db, 40, 0.4, 7)
	_, to1, err := cl.srv.Append(stream[:20])
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerEpoch(t, cl.follower, to1)

	nf.Partition(true)
	// Writes while the link is down: the leader keeps acknowledging (its
	// durability does not depend on followers), the follower lags.
	if _, _, err := cl.srv.Append(stream[20:]); err != nil {
		t.Fatal(err)
	}
	lsn := cl.srv.Stats().Appended
	if err := cl.srv.WaitApplied(lsn); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let reads fail and the loop hit backoff
	nf.Partition(false)

	fsrv := waitFollowerEpoch(t, cl.follower, lsn)
	lv, _ := cl.srv.View(id)
	fv, err := fsrv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Epoch != lv.Epoch || fv.Count != lv.Count || fv.LS.LS != lv.LS.LS {
		t.Fatalf("post-heal follower view (epoch %d, %d, %d) != leader (epoch %d, %d, %d)",
			fv.Epoch, fv.Count, fv.LS.LS, lv.Epoch, lv.Count, lv.LS.LS)
	}
}

// TestLeaderFencedOnLeaseLoss: the double-leader guard. When the lease store
// moves on (here: expiry plus a competing acquire), the old leader's renewal
// fails and it fences itself — every subsequent acknowledgment attempt
// returns ErrFenced.
func TestLeaderFencedOnLeaseLoss(t *testing.T) {
	var nowNS atomic.Int64
	nowNS.Store(time.Now().UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNS.Load()) }
	store := NewMemLease(clock)

	db := testDB(t, 10, 4, 1, "R1", "R2", "R3")
	dir := t.TempDir()
	srv, err := serve.New(db, serveOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseNow()
	ld, err := NewLeader(srv, LeaderOptions{Lease: store, Holder: "old", TTL: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()

	// Jump the injected clock past expiry and install a successor; the old
	// leader's next renew (every TTL/3 of real time) sees the newer term.
	nowNS.Add(int64(time.Second))
	if _, err := store.Acquire("new", time.Minute); err != nil {
		t.Fatal(err)
	}
	stream := workload.UpdateStream(db, 4, 0.4, 7)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := srv.Append(stream[:1])
		if errors.Is(err, serve.ErrFenced) {
			break
		}
		if err != nil {
			t.Fatalf("append failed with %v before the fence landed", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never fenced after losing its lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPromoteFailover kills the leader outright and promotes the follower:
// the promoted server carries the exact epoch, views, and spent ε the dead
// leader acknowledged — including replaying the identical cached noisy
// release — and starts shipping under a fresh lineage.
func TestPromoteFailover(t *testing.T) {
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	store := NewMemLease(nil)
	cl := startCluster(t, db, LeaderOptions{Lease: store, Holder: "leader", TTL: time.Minute}, FollowerOptions{})

	id := registerPath(t, cl.srv)
	stream := workload.UpdateStream(db, 40, 0.4, 7)
	_, to, err := cl.srv.Append(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	rel1, err := cl.srv.Release(id, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	before, err := cl.srv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	// Caught up means the whole durable stream, the release record
	// included, not just the update epoch.
	lg, li := cl.srv.WAL().DurablePosition()
	waitFollowerPosition(t, cl.follower, lg, li)

	// SIGKILL equivalent: graceful Close releases the lease (a crashed leader
	// would instead age out of it); CloseNow abandons the server state.
	cl.leader.Close()
	cl.srv.CloseNow()

	promoted, err := cl.follower.Promote(PromoteOptions{
		MinLSN: to, MinGen: lg, MinIdx: li, Lease: store, Holder: "promoted", TTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	st := promoted.Stats()
	if st.Appended != to || st.Epoch != to {
		t.Fatalf("promoted to appended=%d epoch=%d, want %d", st.Appended, st.Epoch, to)
	}
	after, err := promoted.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch || after.Count != before.Count || after.LS.LS != before.LS.LS {
		t.Fatalf("promoted view (epoch %d, %d, %d), want (%d, %d, %d)",
			after.Epoch, after.Count, after.LS.LS, before.Epoch, before.Count, before.LS.LS)
	}
	// ε-single-writer across the failover: the spend survived, the cached
	// noisy value replays bit-identically, nothing is spent twice.
	rel2, err := promoted.Release(id, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Fresh || rel2.TotalSpent != rel1.TotalSpent || rel2.Run.Noisy != rel1.Run.Noisy {
		t.Fatalf("promoted release %+v, want replay of noisy=%g at total %v", rel2, rel1.Run.Noisy, rel1.TotalSpent)
	}
	// The promoted server can lead: fresh lineage, accepts appends.
	ld2, err := NewLeader(promoted, LeaderOptions{Lease: store, Holder: "promoted", TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer ld2.Close()
	if _, to2, err := promoted.Append(stream[:4]); err != nil {
		t.Fatal(err)
	} else if err := promoted.WaitApplied(to2); err != nil {
		t.Fatal(err)
	}
	// Closing the (already promoted) follower must not tear the state down.
	cl.follower.Close()
	if _, err := promoted.View(id); err != nil {
		t.Fatalf("follower.Close tore down the promoted server: %v", err)
	}
}

// TestPromoteRefusesShortHorizon: a follower whose replicated state stops
// short of the acknowledged horizon refuses to promote — promoting would
// silently void acknowledged writes and resurrect spent ε.
func TestPromoteRefusesShortHorizon(t *testing.T) {
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	nf := &NetFault{}
	cl := startCluster(t, db, LeaderOptions{Fault: nf}, FollowerOptions{Fault: nf})
	defer func() { cl.leader.Close(); cl.srv.CloseNow() }()

	registerPath(t, cl.srv)
	stream := workload.UpdateStream(db, 24, 0.4, 7)
	_, to1, err := cl.srv.Append(stream[:12])
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerEpoch(t, cl.follower, to1)

	nf.Partition(true)
	_, to2, err := cl.srv.Append(stream[12:])
	if err != nil {
		t.Fatal(err)
	}
	cl.leader.Close()
	cl.srv.CloseNow()

	_, err = cl.follower.Promote(PromoteOptions{MinLSN: to2})
	if err == nil || !strings.Contains(err.Error(), "refusing promotion") {
		t.Fatalf("promotion with a short horizon: %v, want refusal", err)
	}
	cl.follower.Close()
}

// TestPromoteRefusesUnshippedRegistration: a registration acknowledged
// during a partition moves no update LSN, so a follower caught up on
// updates passes MinLSN. The leader's durable WAL position covers the
// registration record, and the follower refuses rather than lose it.
func TestPromoteRefusesUnshippedRegistration(t *testing.T) {
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	nf := &NetFault{}
	cl := startCluster(t, db, LeaderOptions{Fault: nf}, FollowerOptions{Fault: nf})
	defer func() { cl.leader.Close(); cl.srv.CloseNow() }()

	registerPath(t, cl.srv)
	_, to, err := cl.srv.Append(workload.UpdateStream(db, 12, 0.4, 7))
	if err != nil {
		t.Fatal(err)
	}
	lg, li := cl.srv.WAL().DurablePosition()
	waitFollowerPosition(t, cl.follower, lg, li)
	waitFollowerEpoch(t, cl.follower, to)

	nf.Partition(true)
	if _, _, err := cl.srv.Register(serve.QueryConfig{ID: "late", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	lg, li = cl.srv.WAL().DurablePosition()
	cl.leader.Close()
	cl.srv.CloseNow()

	if applied := cl.follower.Server().Stats().Appended; applied != to {
		t.Fatalf("follower applied %d updates, want %d: MinLSN alone would pass", applied, to)
	}
	_, err = cl.follower.Promote(PromoteOptions{MinLSN: to, MinGen: lg, MinIdx: li})
	if err == nil || !strings.Contains(err.Error(), "refusing promotion") {
		t.Fatalf("promotion missing an acknowledged registration: %v, want refusal", err)
	}
	cl.follower.Close()
}

// TestLeaderRestartResetsFollower restarts the leader process from its own
// WAL directory on the same address: the fresh lineage forces the follower
// to discard its mirror and resync from the reset checkpoint — and the
// resynced views still match.
func TestLeaderRestartResetsFollower(t *testing.T) {
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	leaderDir := t.TempDir()
	srv, err := serve.New(db, serveOpts(leaderDir))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLeader(srv, LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go ld.Serve(ln)

	fdir := t.TempDir()
	fl, err := StartFollower(FollowerOptions{
		Dir: fdir, Addr: addr, Serve: serveOpts(fdir),
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	id := registerPath(t, srv)
	stream := workload.UpdateStream(db, 24, 0.4, 7)
	_, to1, err := srv.Append(stream[:12])
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerEpoch(t, fl, to1)

	// Leader process dies and restarts from its own directory.
	ld.Close()
	srv.CloseNow()
	srv2, err := serve.New(nil, serveOpts(leaderDir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.CloseNow()
	ld2, err := NewLeader(srv2, LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld2.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go ld2.Serve(ln2)

	_, to2, err := srv2.Append(stream[12:])
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.WaitApplied(to2); err != nil {
		t.Fatal(err)
	}
	fsrv := waitFollowerEpoch(t, fl, to2)
	lv, _ := srv2.View(id)
	fv, err := fsrv.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Epoch != lv.Epoch || fv.Count != lv.Count || fv.LS.LS != lv.LS.LS {
		t.Fatalf("resynced follower view (epoch %d, %d, %d) != restarted leader (epoch %d, %d, %d)",
			fv.Epoch, fv.Count, fv.LS.LS, lv.Epoch, lv.Count, lv.LS.LS)
	}
}
