package tsens

import (
	"math/rand"
	"testing"
)

// TestSessionPublicAPI drives the public session surface end to end: open,
// replay a generated update stream in mixed single/bulk batches on a shared
// worker pool, stream DP answers, and cross-check against the one-shot
// solver.
func TestSessionPublicAPI(t *testing.T) {
	db := GenerateEgoNetwork(EgoNetConfig{Nodes: 30, Edges: 150, Circles: 40, Seed: 2})
	q, err := ParseQuery("qw", "R1(A,B), R2(B,C), R3(C,D), R4(D,E)")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewWorkerPool(4)
	defer pool.Close()
	opts := Options{Parallelism: 4, Pool: pool}
	// The second half of the stream, 100 updates, must take the bulk path.
	sess, err := OpenSession(q, db, SessionOptions{Options: opts, BulkThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Count(q, db); sess.Count() != want {
		t.Fatalf("initial count %d, want %d", sess.Count(), want)
	}

	stream := GenerateUpdateStream(db, 200, 0.4, 7)
	// Mirror the stream into a plain database for cross-checks.
	mirror := db.Clone()
	applyMirror := func(u Update) {
		r := mirror.Relation(u.Rel)
		if u.Insert {
			r.Rows = append(r.Rows, u.Row.Clone())
			return
		}
		for i, row := range r.Rows {
			if row.Equal(u.Row) {
				r.Rows[i] = r.Rows[len(r.Rows)-1]
				r.Rows = r.Rows[:len(r.Rows)-1]
				return
			}
		}
		t.Fatalf("mirror: absent tuple %v", u.Row)
	}
	for _, u := range stream {
		applyMirror(u)
	}
	// Replay: first half one by one, second half as one bulk batch.
	half := len(stream) / 2
	for _, u := range stream[:half] {
		var err error
		if u.Insert {
			err = sess.Insert(u.Rel, u.Row)
		} else {
			err = sess.Delete(u.Rel, u.Row)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Apply(stream[half:]); err != nil {
		t.Fatal(err)
	}
	if sess.Rebuilds() == 0 {
		t.Fatal("bulk batch did not trigger a rebuild")
	}

	want, err := LocalSensitivity(q, mirror, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.LS()
	if err != nil {
		t.Fatal(err)
	}
	if got.LS != want.LS || got.Count != want.Count || sess.Count() != want.Count {
		t.Fatalf("session LS=%d Count=%d, scratch LS=%d Count=%d", got.LS, got.Count, want.LS, want.Count)
	}

	// Streaming DP release over the live session.
	st, err := NewStreamingTSensDP(sess, "R1", StreamingTSensDPConfig{
		TSensDPConfig: TSensDPConfig{Epsilon: 1, Bound: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	run, fresh, err := st.Answer(rng)
	if err != nil || !fresh {
		t.Fatalf("streaming answer: fresh=%v err=%v", fresh, err)
	}
	if run.True != want.Count {
		t.Fatalf("streaming True=%d, want %d", run.True, want.Count)
	}
	if _, fresh, err = st.Answer(rng); err != nil || fresh {
		t.Fatalf("second answer should replay: fresh=%v err=%v", fresh, err)
	}
}
