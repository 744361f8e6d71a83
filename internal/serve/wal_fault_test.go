package serve

import (
	"errors"
	"testing"

	"tsens/internal/mechanism"
	"tsens/internal/serve/faultfs"
	"tsens/internal/workload"
)

// TestServeAppendWALFaultNotAcknowledged drives the durability claim through
// the server, not just the WAL: an Append whose fsync fails surfaces the
// error and does NOT advance the acknowledged LSN, subsequent writes keep
// failing (the WAL is sticky), and after a simulated machine crash the
// reopened server carries exactly the pre-fault state.
func TestServeAppendWALFaultNotAcknowledged(t *testing.T) {
	db := testDB(t, 12, 4, 3, "R1", "R2", "R3")
	fs := faultfs.New(nil)
	dir := t.TempDir()
	// CheckpointEvery < 0: checkpoints only at boot, so the armed fault is
	// consumed by the Append under test, not a background checkpoint.
	opts := Options{Parallelism: 2, BatchSize: 4, WALDir: dir, WALFS: fs, CheckpointEvery: -1}
	srv, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := srv.Register(QueryConfig{
		ID:      "pq",
		Query:   pathQuery(t),
		Private: "R2",
		Release: mechanism.TSensDPConfig{Epsilon: 1, Bound: 64},
		Budget:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.UpdateStream(db, 24, 0.4, 7)
	_, to, err := srv.Append(stream[:16])
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitApplied(to); err != nil {
		t.Fatal(err)
	}
	before, err := srv.View(id)
	if err != nil {
		t.Fatal(err)
	}

	fs.FailNthSync(1)
	if _, _, err := srv.Append(stream[16:20]); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append with failing fsync: %v, want ErrInjected", err)
	}
	if got := srv.Stats().Appended; got != to {
		t.Fatalf("failed append advanced the acknowledged LSN to %d, want %d", got, to)
	}
	fs.Disarm()
	if _, _, err := srv.Append(stream[20:]); err == nil {
		t.Fatal("append after a WAL fault succeeded; the sticky WAL must keep refusing")
	}

	// The machine dies: unsynced bytes vanish, the process state is gone.
	srv.CloseNow()
	if err := fs.CrashAndRestore(); err != nil {
		t.Fatal(err)
	}
	re, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.Appended != to || st.Epoch != to {
		t.Fatalf("recovered to appended=%d epoch=%d, want %d (the refused batch must be absent)",
			st.Appended, st.Epoch, to)
	}
	after, err := re.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch || after.Count != before.Count || after.LS.LS != before.LS.LS {
		t.Fatalf("recovered view (epoch %d, %d, %d), want (%d, %d, %d)",
			after.Epoch, after.Count, after.LS.LS, before.Epoch, before.Count, before.LS.LS)
	}
	// And the reopened server accepts writes again.
	if _, to2, err := re.Append(stream[16:20]); err != nil {
		t.Fatal(err)
	} else if err := re.WaitApplied(to2); err != nil {
		t.Fatal(err)
	}
}

// TestServeRegisterWALFaultDetaches pins the journal-failure path of
// Register: the shard has already attached the query when its record fails
// to journal, so Register detaches it again through the drop Unregister
// uses, and neither the query nor its session stays behind.
func TestServeRegisterWALFaultDetaches(t *testing.T) {
	db := testDB(t, 12, 4, 5, "R1", "R2", "R3")
	fs := faultfs.New(nil)
	srv, err := New(db, Options{Shards: 1, WALDir: t.TempDir(), WALFS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseNow()
	if _, _, err := srv.Register(QueryConfig{ID: "path", Query: pathQuery(t)}); err != nil {
		t.Fatal(err)
	}
	fs.FailNthSync(1)
	if _, _, err := srv.Register(QueryConfig{ID: "star", Query: starQuery3(t)}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("register with failing fsync: %v, want ErrInjected", err)
	}
	if qs := srv.Queries(); len(qs) != 1 || qs[0].ID != "path" {
		t.Fatalf("queries after the failed register: %+v, want only path", qs)
	}
	if tot := planTotals(srv); tot.Subscribers != 1 {
		t.Fatalf("plan totals %+v after the failed register, want only path's session", tot)
	}
}
