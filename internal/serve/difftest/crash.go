package difftest

// The crash-point matrix: the differential script of Run, executed against
// a durable server that is killed (CloseNow abandons every byte of
// in-memory state) at seed-chosen points mid-script — at arbitrary WAL
// offsets, including with an acknowledged-but-undrained backlog and with a
// torn partial frame appended to the newest segment to simulate dying
// mid-write — then reopened from the WAL directory alone and driven on.
// After every reopen and at every flush point the recovered server must
// match both references of checkView exactly (counts, LS, per-relation
// maxima) and the ledger model exactly (spent ε, replayed noisy values), i.e. the
// interrupted run is observationally identical to an uninterrupted one.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tsens/internal/mechanism"
	"tsens/internal/relation"
	"tsens/internal/serve"
)

// RunCrash executes one scripted crash-recovery run in walDir, killing and
// reopening the server `crashes` times at seed-chosen steps.
func RunCrash(t *testing.T, cfg Config, walDir string, crashes int) {
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

	opts := serve.Options{
		Shards:          cfg.Shards,
		Parallelism:     cfg.Parallelism,
		BatchSize:       cfg.BatchSize,
		WALDir:          walDir,
		CheckpointEvery: 16, // small: crashes land on both sides of checkpoints
	}
	base := baseDB(rng)
	srv, err := serve.New(base, opts)
	if err != nil {
		fatalf("new server: %v", err)
	}
	alive := true
	defer func() {
		if alive {
			srv.CloseNow()
		}
	}()

	// Pick the crash steps up front so they are part of the seeded script.
	crashAt := map[int]bool{}
	for i := 0; i < crashes; i++ {
		crashAt[1+rng.Intn(cfg.Steps)] = true
	}

	var (
		live       = newModel(base)
		cursor     = newModel(base)
		log        []relation.Update
		registered = map[string]candidate{}
		spent      = map[string]float64{}
		lastNoisy  = map[string]float64{} // last fresh noisy value; replays must repeat it
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
		// acked == journaled, per record kind: every acknowledgment this
		// instance handed out wrote exactly one WAL record of the same kind
		// first. Both counters start at zero with the instance (recovery
		// replay touches neither side), so they must agree at every quiesce
		// point — the durability identity, read off /metrics.
		snap := srv.Metrics().Snapshot()
		for _, kind := range []string{"updates", "register", "unregister", "release"} {
			acks := snap[fmt.Sprintf("tsens_serve_acks_total{kind=%q}", kind)]
			recs := snap[fmt.Sprintf("tsens_wal_records_total{kind=%q}", kind)]
			if acks != recs {
				fatalf("%s: kind %s: %g acknowledgments, %g journaled records", when, kind, acks, recs)
			}
		}
	}

	crash := func(step int) {
		t.Helper()
		srv.CloseNow()
		alive = false
		tearNewestSegment(t, walDir, rng)
		re, err := serve.New(nil, opts) // recovery needs nothing but the WAL dir
		if err != nil {
			fatalf("step %d: reopen: %v", step, err)
		}
		srv = re
		alive = true
		// Every acknowledged operation must have survived: same registered
		// set, same epochs, same answers, same ledgers.
		infos := srv.Queries()
		if len(infos) != len(registered) {
			fatalf("step %d: recovered %d queries, want %d (%+v)", step, len(infos), len(registered), infos)
		}
		for _, info := range infos {
			if _, ok := registered[info.ID]; !ok {
				fatalf("step %d: recovered unregistered query %q", step, info.ID)
			}
		}
		verify(fmt.Sprintf("step %d post-crash", step))
	}

	for step := 0; step < cfg.Steps; step++ {
		if crashAt[step] {
			crash(step)
		}
		switch op := rng.Intn(100); {
		case op < 50: // append a batch (sometimes crashing right behind the ack)
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
			if _, _, err := srv.Append(batch); err != nil {
				fatalf("append: %v", err)
			}
			log = append(log, batch...)
			live.advance(batch)
		case op < 65:
			verify(fmt.Sprintf("step %d flush", step))
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
				sort.Strings(ids) // deterministic pick: map order must not steer the script
				id := ids[rng.Intn(len(ids))]
				if err := srv.Unregister(id); err != nil {
					fatalf("unregister %s: %v", id, err)
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
					fatalf("release: %v", err)
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
				// A replayed release must repeat the recorded noisy value —
				// across crashes too (the cached run is journaled).
				fatalf("replayed release noisy %g, want recorded %g", res.Run.Noisy, want)
			}
		}
	}
	crash(cfg.Steps) // final kill + recover
	verify("final")
}

// tearNewestSegment appends a partial frame to the newest WAL segment,
// simulating a crash mid-write. Everything acknowledged is durable before
// the tear, so recovery must truncate it off without losing a record.
func tearNewestSegment(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") && name > newest {
			newest = name
		}
	}
	if newest == "" {
		return
	}
	f, err := os.OpenFile(filepath.Join(dir, newest), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 1+rng.Intn(24))
	rng.Read(garbage)
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
