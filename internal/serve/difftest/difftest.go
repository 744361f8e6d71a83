// Package difftest is the randomized differential harness guarding the
// sharded serving stack: it drives a seeded random interleaving of inserts,
// deletes (including deliberate deletes of absent tuples), registrations,
// releases, and unregistrations against a live serve.Server, and at every
// synchronized epoch replays the same script through two references —
// the from-scratch solver (core.LocalSensitivity) and the brute-force
// oracle of Theorem 3.1 (core.NaiveLocalSensitivity), which shares no join
// kernel with the engine — asserting exact equality of count, LS and every
// per-relation sensitivity for every registered query (checkView) plus
// exact ledger totals for every budget-accounted release.
//
// The script is fully determined by Config.Seed; the seed is logged up
// front and embedded in every failure message, so a CI failure replays with
// TSENS_DIFF_SEED=<seed> go test -run TestServeDifferentialRandomized.
// Run under -race: a background reader hammers the published views the
// whole time, so the harness also exercises the reader/writer boundary.
package difftest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"tsens/internal/core"
	"tsens/internal/mechanism"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/serve"
)

// Config parameterizes one harness run.
type Config struct {
	// Seed determines the entire script.
	Seed int64
	// Shards is the server's write-path shard count.
	Shards int
	// Steps is the number of script operations (default 120).
	Steps int
	// Parallelism is forwarded to the server (default 2).
	Parallelism int
	// BatchSize is forwarded to the server (default 4, so most flushes span
	// several drain rounds).
	BatchSize int
}

// candidate is one query the script may register: stars, a path and a
// mixed shape whose texts spread them over the shards (and whose shared
// relations let co-located sessions share plan stores), and a private one
// for budget accounting.
type candidate struct {
	id      string
	mk      func() *query.Query
	private string
	budget  float64
}

func mustQuery(name string, atoms []query.Atom) *query.Query {
	q, err := query.New(name, atoms, nil)
	if err != nil {
		panic(err)
	}
	return q
}

func candidates() []candidate {
	return []candidate{
		{id: "star", mk: func() *query.Query {
			return mustQuery("star", []query.Atom{
				{Relation: "S1", Vars: []string{"A", "B"}},
				{Relation: "S2", Vars: []string{"A", "C"}},
				{Relation: "S3", Vars: []string{"A", "D"}},
			})
		}},
		{id: "star2", mk: func() *query.Query {
			return mustQuery("star2", []query.Atom{
				{Relation: "S1", Vars: []string{"A", "B"}},
				{Relation: "S3", Vars: []string{"A", "C"}},
			})
		}},
		{id: "path", mk: func() *query.Query {
			return mustQuery("path", []query.Atom{
				{Relation: "P1", Vars: []string{"A", "B"}},
				{Relation: "P2", Vars: []string{"B", "C"}},
			})
		}},
		{id: "mix", mk: func() *query.Query {
			return mustQuery("mix", []query.Atom{
				{Relation: "S1", Vars: []string{"A", "B"}},
				{Relation: "P1", Vars: []string{"A", "C"}},
			})
		}},
		{id: "priv", private: "S2", budget: 3, mk: func() *query.Query {
			return mustQuery("priv", []query.Atom{
				{Relation: "S1", Vars: []string{"A", "B"}},
				{Relation: "S2", Vars: []string{"A", "C"}},
			})
		}},
	}
}

// model replays the raw update log with the server's skip semantics
// (deletes of absent tuples are dropped), tracking both the live tip (for
// generating deletes of real rows) and a verification cursor that advances
// to each published epoch.
type model struct {
	db      *relation.Database
	rowpos  map[string]*relation.RowSet
	applied int64
	skipped int64
}

func newModel(db *relation.Database) *model {
	m := &model{db: db.Clone(), rowpos: map[string]*relation.RowSet{}}
	for _, name := range m.db.Names() {
		m.rowpos[name] = relation.NewRowSet(m.db.Relation(name))
	}
	return m
}

// advance folds raw log entries into the model, counting skips.
func (m *model) advance(ups []relation.Update) {
	for _, up := range ups {
		r := m.db.Relation(up.Rel)
		rs := m.rowpos[up.Rel]
		if up.Insert {
			rs.Insert(r, up.Row)
		} else if !rs.TryRemove(r, up.Row) {
			m.skipped++
		}
		m.applied++
	}
}

const (
	keyDom = 6
	valDom = 4
)

func baseDB(rng *rand.Rand) *relation.Database {
	mk := func(name string, n int) *relation.Relation {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = relation.Tuple{int64(rng.Intn(keyDom)), int64(rng.Intn(valDom))}
		}
		return relation.MustNew(name, []string{name + "_x", name + "_y"}, rows)
	}
	return relation.MustNewDatabase(mk("S1", 18), mk("S2", 15), mk("S3", 12), mk("P1", 15), mk("P2", 15))
}

// checkView compares a served view's count, LS and per-relation
// sensitivities with both references at database state db: the
// from-scratch solver, and the naive oracle, which re-counts the join by
// brute force for every deleted or inserted candidate tuple and so shares
// no kernel the engine runs. The fixture (5 relations of 12–18 rows over a
// 6×4 domain) keeps the oracle cheap. It returns the first mismatch.
func checkView(q *query.Query, db *relation.Database, v *serve.View) error {
	scratch, err := core.LocalSensitivity(q, db, core.Options{})
	if err != nil {
		return fmt.Errorf("scratch: %w", err)
	}
	naive, err := core.NaiveLocalSensitivity(q, db, core.NaiveOptions{})
	if err != nil {
		return fmt.Errorf("naive oracle: %w", err)
	}
	for _, ref := range []struct {
		name string
		res  *core.Result
	}{{"scratch", scratch}, {"naive oracle", naive}} {
		if v.Count != ref.res.Count || v.LS.LS != ref.res.LS {
			return fmt.Errorf("served (count %d, LS %d), %s (%d, %d)", v.Count, v.LS.LS, ref.name, ref.res.Count, ref.res.LS)
		}
		for rel, tr := range ref.res.PerRelation {
			if got := v.LS.PerRelation[rel]; got == nil || got.Sensitivity != tr.Sensitivity {
				return fmt.Errorf("relation %s: served %v, %s %d", rel, got, ref.name, tr.Sensitivity)
			}
		}
	}
	return nil
}

// Run executes one scripted differential run. Every failure message leads
// with the seed for replay.
func Run(t *testing.T, cfg Config) {
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

	base := baseDB(rng)
	srv, err := serve.New(base, serve.Options{
		Shards:      cfg.Shards,
		Parallelism: cfg.Parallelism,
		BatchSize:   cfg.BatchSize,
	})
	if err != nil {
		fatalf("new server: %v", err)
	}
	defer srv.Close()

	// Background reader: hammers the published views for the whole script
	// so the run exercises the reader/writer boundary under -race. Answers
	// are verified separately at flush points; here only invariants that
	// hold at any instant are checked.
	var stop atomic.Bool
	readerDone := make(chan struct{})
	// Join the reader on every exit path (including fatalf's Goexit), so a
	// failing script never leaves it spinning into later subtests or
	// logging to a finished test.
	defer func() {
		stop.Store(true)
		<-readerDone
	}()
	go func() {
		defer close(readerDone)
		for !stop.Load() {
			for _, info := range srv.Queries() {
				v, err := srv.View(info.ID)
				if err != nil {
					continue // unregistered in the meantime, or failed (View surfaces tombstones as errors)
				}
				if v.LS.Count != v.Count {
					t.Errorf("seed %d: view of %s disagrees with its own LS result: %d vs %d",
						cfg.Seed, info.ID, v.Count, v.LS.Count)
					return
				}
			}
		}
	}()

	var (
		live       = newModel(base) // tip of everything appended
		cursor     = newModel(base) // verification cursor, advanced per epoch
		log        []relation.Update
		registered = map[string]candidate{}
		spent      = map[string]float64{}
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
		delete(spent, c.id) // re-registration starts a fresh ledger
	}
	register(candidates()[0]) // always start with the star

	verify := func() {
		t.Helper()
		total := int64(len(log))
		if err := srv.WaitApplied(total); err != nil {
			fatalf("wait: %v", err)
		}
		cursor.advance(log[cursor.applied:total])
		if st := srv.Stats(); st.Epoch != total || st.Skipped != cursor.skipped {
			fatalf("stats %+v, model: epoch %d, skipped %d", st, total, cursor.skipped)
		}
		for id, c := range registered {
			v, err := srv.View(id)
			if err != nil {
				fatalf("view %s: %v", id, err)
			}
			if v.Epoch != total {
				fatalf("view %s at epoch %d after waiting for %d", id, v.Epoch, total)
			}
			if err := checkView(c.mk(), cursor.db, v); err != nil {
				fatalf("epoch %d, query %s: %v", total, id, err)
			}
		}
		for _, info := range srv.Queries() {
			if want, ok := spent[info.ID]; ok && math.Abs(info.Spent-want) > 1e-9 {
				fatalf("query %s ledger spent %g, model %g", info.ID, info.Spent, want)
			}
		}
		// The /metrics surface must agree with the model at every quiesce
		// point: these are the identities monitoring dashboards lean on, so
		// the differential harness holds them to the same exactness as the
		// query answers.
		mv := func(sample string) float64 {
			v, _ := srv.Metrics().Value(sample)
			return v
		}
		if got := mv("tsens_serve_epoch"); got != float64(total) {
			fatalf("metric tsens_serve_epoch %g, model epoch %d", got, total)
		}
		if got := mv("tsens_serve_appended"); got != float64(total) {
			fatalf("metric tsens_serve_appended %g, model %d", got, total)
		}
		if got := mv("tsens_serve_skipped"); got != float64(cursor.skipped) {
			fatalf("metric tsens_serve_skipped %g, model %d", got, cursor.skipped)
		}
		if got := mv("tsens_serve_queries"); got != float64(len(registered)) {
			fatalf("metric tsens_serve_queries %g, %d registered", got, len(registered))
		}
		for _, info := range srv.Queries() {
			sample := fmt.Sprintf("tsens_epsilon_spent{query=%q}", info.ID)
			if got := mv(sample); math.Abs(got-info.Spent) > 1e-9 {
				fatalf("metric %s %g, ledger %g", sample, got, info.Spent)
			}
		}
	}

	for step := 0; step < cfg.Steps; step++ {
		switch op := rng.Intn(100); {
		case op < 50: // append a batch
			n := 1 + rng.Intn(8)
			batch := make([]relation.Update, 0, n)
			for i := 0; i < n; i++ {
				rel := names[rng.Intn(len(names))]
				rows := live.db.Relation(rel).Rows
				switch {
				case len(rows) > 0 && rng.Intn(100) < 35: // delete a live row
					batch = append(batch, relation.Update{Rel: rel, Row: rows[rng.Intn(len(rows))].Clone()})
				case rng.Intn(100) < 10: // delete a (probably) absent row
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
		case op < 65: // flush and verify every query at the published epoch
			verify()
		case op < 75: // register an unregistered candidate
			for _, c := range candidates() {
				if _, ok := registered[c.id]; !ok {
					register(c)
					break
				}
			}
		case op < 85: // unregister one (keep at least one registered)
			if len(registered) > 1 {
				// Pick deterministically: ranging over the map would let Go's
				// randomized iteration order steer the script, breaking the
				// replay-by-seed contract.
				ids := make([]string, 0, len(registered))
				for id := range registered {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				id := ids[rng.Intn(len(ids))]
				if err := srv.Unregister(id); err != nil {
					fatalf("unregister %s: %v", id, err)
				}
				delete(registered, id)
			}
		default: // release on the private query, if registered
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
			if res.Fresh == (res.Spent == 0) {
				fatalf("fresh/spent disagree: %+v", res)
			}
			if spent["priv"] > c.budget+1e-9 {
				fatalf("ledger overdrawn: %g of %g", spent["priv"], c.budget)
			}
		}
	}
	verify()
}
