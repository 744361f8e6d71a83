// Package incremental maintains LS(Q, D) and |Q(D)| under single-tuple
// inserts and deletes, the "FO+MOD queries under updates" direction of the
// roadmap (Berkholz, Keppeler, Schweikardt): instead of recomputing every
// botjoin/topjoin pass from scratch per database, a Session pins the join
// tree of the one-shot solver (internal/core) and retains all of its
// materialized state — per-member base projections, per-unit bag joins,
// botjoin and topjoin tables, and the factor groups of every multiplicity
// table T^i. A single-tuple update to relation R then recomputes only the
// deltas along the leaf-to-root botjoin path through R's node, the affected
// topjoins (which fan out from that path's siblings), and the multiplicity
// table factors those tables feed, patching every table in place through
// the delta kernels of internal/relation (ApplyDelta, ExpandPlan).
//
// Per-group maxima are tracked incrementally, so LS() after an update costs
// a handful of hash lookups unless a deletion dethroned a current argmax
// (which triggers one lazy rescan of that group table). Count() is O(1)
// from the maintained component totals.
//
// Bulk batches fall back to a full rebuild (Options.BulkThreshold), which
// is also the escape hatch for anything delta maintenance does not model.
// Cyclic queries work through the same GHD decompositions as the one-shot
// solver: an update to a bag member joins its delta against the other
// members of the bag before entering the passes.
//
// Sessions are not safe for concurrent use: updates mutate the retained
// tables in place. All reads (Count, LS, SensitivityFn evaluators) observe
// the state as of the last applied update.
package incremental

import (
	"fmt"
	"time"

	"tsens/internal/core"
	"tsens/internal/obs"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// Update is a single-tuple change, re-exported from internal/relation.
type Update = relation.Update

// DefaultBulkThreshold is the batch size at which Apply abandons per-tuple
// delta propagation for one full rebuild. Where one beats the other
// depends on the query: on the paper's ego-network queries (225 nodes),
// a batch of Apply plus LS() rebuilds faster from about 90 updates on qw,
// about 430 on q◦, and about 1,000 on q△ and q*. At 1,024 the default
// picks the faster path in 14 of 16 measured cells (batches of 64 to
// 4,096 on those four queries); docs/INCREMENTAL.md ("Bulk batches")
// gives the figures.
const DefaultBulkThreshold = 1024

// Options configures a Session. The embedded core.Options must be exact
// (TopK = 0); Decomposition, SkipRelations, Parallelism, and Pool carry
// their one-shot meanings (parallelism applies to opens and rebuilds — the
// per-update delta path is sequential by design).
type Options struct {
	core.Options
	// BulkThreshold: Apply batches of at least this many updates trigger a
	// full rebuild instead of per-tuple propagation. Zero means
	// DefaultBulkThreshold; negative disables the fallback.
	BulkThreshold int
	// RebuildTombstoneRatio, when positive, is the per-table tombstone
	// watermark: once more than this fraction of a maintained table's rows
	// are zero-count tombstones, the session that patched the table
	// compacts it in place at the end of the update (relation's
	// Counted.Compact), in a private store and a shared one alike. Deletes
	// leave zeroed rows behind in every table they patch (see
	// relation.ApplyDelta); the tally is exact: resurrected rows leave it.
	// Compaction changes no count, so SensitivityFn evaluators, compiled
	// plans and other subscribers stay valid. Zero or negative leaves
	// tombstones in place until a Rebuild.
	RebuildTombstoneRatio float64
	// Metrics, when set, receives per-update delta-propagation and rebuild
	// latency histograms plus update/rebuild counters (shared across every
	// session opened against the same registry). Nil disables
	// instrumentation entirely — no clocks on the per-update path.
	Metrics *obs.Registry
	// Logger, when set, receives one structured line per full rebuild —
	// rebuilds are the session's only expensive, operator-visible event.
	// Nil keeps the session silent.
	Logger *obs.Logger
}

// memberRef addresses one member of one unit of the solver.
type memberRef struct{ ui, mi int }

// Session is a stateful sensitivity engine over a copy of the database
// kept in its plan store. Obtain one with Open or PlanStore.Open; feed it
// updates with Insert, Delete, or Apply; read LS(), Count(), or a
// SensitivityFn at any point.
type Session struct {
	q    *query.Query
	opts Options
	db   *relation.Database // the referenced relations: the store's copies (srows)

	sol *core.Solver

	memberOf map[string]memberRef
	effPos   map[string][]int // relation → EffVars positions in atom vars
	proj     relation.Tuple   // scratch projection of an update's row
	selFn    map[string]func(relation.Tuple) bool

	// tabs maps every maintained table to its index home (see sharedTabs).
	tabs      map[*relation.Counted]*sharedTabs
	plans     map[edgeKey]*relation.ExpandPlan
	gts       []*gtState
	memberGts map[memberRef][]*gtState
	deps      map[*relation.Counted][]pieceRef

	// marked lists the tables apply found past the tombstone watermark
	// during the current update, compacted once propagation is done.
	marked []*relation.Counted

	doublyAcyclic bool
	maxDegree     int
	updates       int
	rebuilds      int

	// arity holds the arity of every database relation. Open copies only
	// the relations the query references, but updates addressed to the
	// others must still validate and no-op exactly as against a full copy.
	arity map[string]int

	// Plan-store attachment (see shared.go): store holds the relations and
	// maintained tables — the store the session was opened in, or one of
	// its own after a rebuild. pos is the session's cursor in the store's
	// update stream, and srows[rel]/sbase[ui][mi]/snode[ui] the refcounted
	// entries the session holds.
	store *PlanStore
	pos   int64
	srows map[string]*internedRows
	// lost is the lockstep failure of applyRow, once one happened: the
	// store moved past an update the session never applied to its
	// unshared tables, so every later update fails with it.
	lost  error
	sbase [][]*internedBase
	snode []*internedNode

	// Instruments from Options.Metrics; all nil when no registry was given.
	updateSecs       *obs.Histogram
	rebuildSecs      *obs.Histogram
	updatesTotal     *obs.Counter
	rebuildsTotal    *obs.Counter
	compactionsTotal *obs.Counter
}

// Open pins q's join tree over a private clone of db, in a store of the
// session's own: NewPlanStore().Open(q, db, opts).
func Open(q *query.Query, db *relation.Database, opts Options) (*Session, error) {
	return NewPlanStore().Open(q, db, opts)
}

// Open pins q's join tree over db and materializes the session state in
// the store: the session reads the store's copy of every relation q
// references that the store holds and clones only the others, runs the
// one-shot passes, and takes every base projection, unit relation and
// botjoin the store already interns in place of its own. db must be at the
// state of the store's subscribers. A refused open leaves the store
// untouched: Open refuses a poisoned store (Err), one a subscriber is
// mid-round in, and a relation (arity and row count, in O(1)) or table that
// disagrees with the store's copy. It also fails where the one-shot solver
// would, and rejects the top-k approximation, whose truncation does not
// commute with deltas.
func (ps *PlanStore) Open(q *query.Query, db *relation.Database, opts Options) (*Session, error) {
	if opts.TopK > 0 {
		return nil, fmt.Errorf("incremental: sessions require exact mode (TopK=0)")
	}
	if opts.BulkThreshold == 0 {
		opts.BulkThreshold = DefaultBulkThreshold
	}
	s := &Session{q: q, opts: opts, arity: make(map[string]int)}
	rows := make([]*sharedRows, 0, len(q.Atoms))
	ps.mu.Lock()
	err := ps.ready()
	for _, name := range db.Names() {
		r := db.Relation(name)
		s.arity[name] = len(r.Attrs)
		if _, ok := q.Atom(name); !ok || err != nil {
			continue // refused, or a relation that cannot affect |Q(D)| or LS
		}
		if e, ok := ps.rows.Lookup(name); !ok {
			rows = append(rows, newSharedRows(r.Clone()))
		} else if c := e.Val.rel; len(c.Attrs) != len(r.Attrs) || len(c.Rows) != len(r.Rows) {
			err = errCollision
		} else {
			rows = append(rows, e.Val)
		}
	}
	ps.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		s.updateSecs = opts.Metrics.Histogram("tsens_session_update_seconds",
			"Per-update delta propagation latency across sessions.", nil)
		s.rebuildSecs = opts.Metrics.Histogram("tsens_session_rebuild_seconds",
			"Full session rebuild latency (bulk batches, explicit Rebuild).", nil)
		s.updatesTotal = opts.Metrics.Counter("tsens_session_updates_total",
			"Single-tuple updates applied across sessions.")
		s.rebuildsTotal = opts.Metrics.Counter("tsens_session_rebuilds_total",
			"Full session rebuilds across sessions.")
		s.compactionsTotal = opts.Metrics.Counter("tsens_session_compactions_total",
			"Maintained tables compacted in place past the tombstone watermark, across sessions.")
	}
	if err := s.build(ps, rows); err != nil {
		return nil, err
	}
	return s, nil
}

// build runs the one-shot passes over rows, derives every maintained
// structure from them, checks the tables against the entries store already
// holds, and subscribes the session to store. It is the shared body of Open
// and Rebuild, which builds into a new store.
func (s *Session) build(store *PlanStore, rows []*sharedRows) error {
	rels := make([]*relation.Relation, len(rows))
	for i, sr := range rows {
		rels[i] = sr.rel
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		return err
	}
	sol, err := core.NewSolver(s.q, db, s.opts.Options)
	if err != nil {
		return err
	}
	tables, err := sol.MultiplicityTables()
	if err != nil {
		return err
	}
	s.sol = sol
	s.doublyAcyclic = sol.Tree.IsDoublyAcyclic()
	s.maxDegree = sol.Tree.MaxDegree()
	s.memberOf = make(map[string]memberRef)
	s.effPos = make(map[string][]int)
	s.selFn = make(map[string]func(relation.Tuple) bool)
	s.tabs = make(map[*relation.Counted]*sharedTabs)
	home := func(c *relation.Counted) {
		if c != nil && s.tabs[c] == nil {
			s.tabs[c] = newSharedTabs()
		}
	}
	for _, c := range sol.Bot {
		home(c)
	}
	for _, c := range sol.Top {
		home(c)
	}
	for ui, u := range sol.Units {
		home(u.Rel)
		for mi, md := range u.Members {
			ref := memberRef{ui, mi}
			rel := md.Atom.Relation
			s.memberOf[rel] = ref
			pos := make([]int, len(md.EffVars))
			for k, v := range md.EffVars {
				for x, av := range md.Atom.Vars {
					if av == v {
						pos[k] = x
						break
					}
				}
			}
			s.effPos[rel] = pos
			s.selFn[rel] = s.q.ApplySelections(md.Atom)
			home(md.Base)
		}
	}
	s.gts = nil
	for _, mt := range tables {
		ref := memberRef{mt.Unit, mt.Member}
		md := sol.Units[mt.Unit].Members[mt.Member]
		for _, g := range mt.Groups {
			s.gts = append(s.gts, &gtState{
				ref:    ref,
				pieces: g.Pieces,
				table:  g.Table,
				keepFn: md.PredFilter(g.Table.Attrs),
				plans:  make([]*relation.ExpandPlan, len(g.Pieces)),
			})
			home(g.Table)
		}
	}
	shape := sol.PlanShape()
	store.mu.Lock()
	defer store.mu.Unlock()
	if err := s.compatible(store, shape); err != nil {
		return err
	}
	s.attach(store, shape, rows)
	return nil
}

// Insert adds one tuple to the named relation and propagates its effect.
func (s *Session) Insert(rel string, row relation.Tuple) error {
	return s.applyOne(Update{Rel: rel, Row: row, Insert: true})
}

// Delete removes one occurrence of the tuple from the named relation and
// propagates its effect; deleting an absent tuple is an error (and leaves
// the session untouched).
func (s *Session) Delete(rel string, row relation.Tuple) error {
	return s.applyOne(Update{Rel: rel, Row: row, Insert: false})
}

// Apply replays a batch of updates. Batches at or above BulkThreshold are
// applied to the database and answered with one full rebuild, which costs
// the O(N) passes once, however large the batch; per-tuple propagation
// costs each update's delta work. Which is faster depends on the query
// (see DefaultBulkThreshold).
// Validation errors (unknown relation, arity mismatch, deleting an absent
// tuple) abort the batch at the failing update; updates before it remain
// applied and the session stays consistent.
func (s *Session) Apply(batch []Update) error {
	if s.lost != nil {
		return s.lost
	}
	// The bulk-rebuild shortcut takes the rows private and leaves the store
	// before changing them, then rebuilds into a store of its own. Leaving a
	// shared store never advances it, so remaining subscribers stay aligned
	// (the next to apply at the current position becomes lead). Callers that
	// group sessions by store should re-read Store() after bulk batches.
	if s.opts.BulkThreshold > 0 && len(batch) >= s.opts.BulkThreshold {
		rows := s.detach()
		err := s.applyRows(rows, batch)
		// Rebuild even after an error, so the maintained state matches the
		// rows already changed before reporting it.
		if rerr := s.rebuild(rows); rerr != nil {
			return rerr
		}
		return err
	}
	for _, up := range batch {
		if err := s.applyOne(up); err != nil {
			return err
		}
	}
	return nil
}

// applyRows applies a batch to rows the session holds privately (the bulk
// path, ahead of its rebuild), stopping at the first invalid update.
func (s *Session) applyRows(rows []*sharedRows, batch []Update) error {
	byName := make(map[string]*sharedRows, len(rows))
	for _, sr := range rows {
		byName[sr.rel.Name] = sr
	}
	for _, up := range batch {
		if err := s.validate(up); err != nil {
			return err
		}
		if sr := byName[up.Rel]; sr != nil {
			if err := sr.apply(up); err != nil {
				return err
			}
		}
		s.updates++
	}
	return nil
}

// validate checks an update against the schema of the database the session
// was opened over.
func (s *Session) validate(up Update) error {
	arity, ok := s.arity[up.Rel]
	if !ok {
		return fmt.Errorf("incremental: no relation %q", up.Rel)
	}
	if len(up.Row) != arity {
		return fmt.Errorf("incremental: tuple arity %d does not match %s arity %d", len(up.Row), up.Rel, arity)
	}
	return nil
}

// applyRow validates an update and applies it to the store's rows,
// returning the member it maps to (ok=false when the relation is not
// referenced by the query). The first subscriber at the session's stream
// position changes the rows (lead); later ones replay its outcome
// (follower), and a subscriber that finds the rows further ahead fails
// rather than apply the update twice, for good: it records the failure in
// s.lost and does not advance.
func (s *Session) applyRow(up Update) (memberRef, bool, error) {
	if err := s.validate(up); err != nil {
		return memberRef{}, false, err
	}
	e := s.srows[up.Rel]
	if e == nil {
		// The query never references the relation: the update cannot
		// affect any maintained state.
		s.updates++
		return memberRef{}, false, nil
	}
	sr := e.Val
	switch {
	case sr.pos == s.pos:
		sr.at, sr.err = s.pos, sr.apply(up)
	case sr.pos != s.pos+1 || sr.at != s.pos:
		s.lost = fmt.Errorf("incremental: rows of %s at stream position %d, session at %d: plan store subscribers out of lockstep", up.Rel, sr.pos, s.pos)
		return memberRef{}, false, s.lost
	}
	if sr.err != nil {
		return memberRef{}, false, sr.err
	}
	s.updates++
	ref, ok := s.memberOf[up.Rel]
	return ref, ok, nil
}

// applyOne applies a single update through delta propagation, then
// compacts the tables it left past the tombstone watermark. The update
// consumes one position of the store's stream: every exit path except a
// propagation or lockstep failure advances the cursor (validation errors,
// the rows' recorded outcome and selection rejections are deterministic
// across subscribers fed the same stream, so positions stay aligned); a
// propagation error may leave a store table half-patched and poisons the
// whole store instead, and a lockstep failure fails the session for good.
func (s *Session) applyOne(up Update) error {
	if s.lost != nil {
		return s.lost
	}
	if err := s.store.fail; err != nil {
		return fmt.Errorf("incremental: plan store poisoned: %w", err)
	}
	if s.updateSecs != nil {
		s.updatesTotal.Inc()
		defer s.updateSecs.ObserveSince(time.Now())
	}
	ref, ok, err := s.applyRow(up)
	if err != nil {
		if s.lost == nil {
			s.advance()
		}
		return err
	}
	if !ok {
		s.advance()
		return nil // relation not referenced by the query: |Q(D)| unaffected
	}
	md := s.sol.Units[ref.ui].Members[ref.mi]
	if keep := s.selFn[up.Rel]; keep != nil && !keep(up.Row) {
		s.advance()
		return nil // rows failing the atom's selection never enter the passes
	}
	delta := int64(1)
	if !up.Insert {
		delta = -1
	}
	s.proj = s.proj[:0]
	for _, x := range s.effPos[up.Rel] {
		s.proj = append(s.proj, up.Row[x])
	}
	dbase := relation.NewCounted(md.EffVars, []relation.Tuple{s.proj}, []int64{delta})
	if err := s.propagate(ref, dbase); err != nil {
		s.marked = nil
		s.poisonStore(err)
		return err
	}
	s.compactMarked()
	s.advance()
	return nil
}

// TombstoneRatio reports the fraction of the session's maintained rows,
// shared store tables included, currently sitting at count zero. With
// RebuildTombstoneRatio set it stays at or under the watermark, since every
// table does.
func (s *Session) TombstoneRatio() float64 {
	zero, total := 0, 0
	for c := range s.tabs {
		zero += c.Tombstones()
		total += c.Len()
	}
	if total == 0 {
		return 0
	}
	return float64(zero) / float64(total)
}

// compactMarked compacts the tables apply marked during the update, after
// propagation has consumed its changed-row lists: each table drops its
// tombstones, its index home is re-indexed in place (every subscriber's
// compiled plans keep their RowIndex pointers), and a factor group's
// running maximum moves with its row. Another subscriber of a shared table
// sees the same logical rows, so nothing else changes.
func (s *Session) compactMarked() {
	for _, c := range s.marked {
		for _, g := range s.gts {
			if g.table == c {
				g.beforeCompact()
			}
		}
		c.Compact()
		s.tabs[c].reindex()
		if s.compactionsTotal != nil {
			s.compactionsTotal.Inc()
		}
	}
	clear(s.marked) // keep no table reachable past a rebuild
	s.marked = s.marked[:0]
}

// Count returns |Q(D)| from the maintained component totals, in O(1).
func (s *Session) Count() int64 { return s.sol.CountTotal() }

// LS assembles the current local-sensitivity result from the maintained
// group-table maxima. The returned Result matches the one-shot
// core.LocalSensitivity in LS, Count, and every per-relation sensitivity;
// when maxima tie, the reported witness tuple may differ, and wildcard
// positions of a witness hold any feasible value rather than a value
// copied from a stored row.
func (s *Session) LS() (*core.Result, error) {
	sol := s.sol
	res := &core.Result{
		PerRelation:   make(map[string]*core.TupleResult),
		Count:         sol.CountTotal(),
		DoublyAcyclic: s.doublyAcyclic,
		MaxDegree:     s.maxDegree,
	}
	for ui, u := range sol.Units {
		for mi, md := range u.Members {
			if md.Skip {
				continue
			}
			gts := s.memberGts[memberRef{ui, mi}]
			maxima := make([]core.GroupMax, 0, len(gts))
			for _, st := range gts {
				row, cnt := st.maxRow()
				maxima = append(maxima, core.GroupMax{Attrs: st.table.Attrs, Row: row, Cnt: cnt})
			}
			tr, err := sol.TupleResultFromMaxima(ui, md, maxima, s.inDB)
			if err != nil {
				return nil, err
			}
			res.PerRelation[md.Atom.Relation] = tr
			if tr.Sensitivity > res.LS {
				res.LS = tr.Sensitivity
				res.Best = tr
			}
		}
	}
	return res, nil
}

// inDB answers candidate membership from the maintained base projection:
// the non-wildcard positions of a candidate are exactly its effective
// variables, so membership is one hash probe. Candidates with a wildcard
// effective variable (possible only under top-k, which sessions reject,
// but kept for safety) fall back to the scanning lookup.
func (s *Session) inDB(md *core.Member, values relation.Tuple, wildcard []bool) (relation.Tuple, bool) {
	pos := s.effPos[md.Atom.Relation]
	key := make(relation.Tuple, len(pos))
	for k, x := range pos {
		if wildcard[x] {
			return core.DBLookup(s.q, s.db)(md, values, wildcard)
		}
		key[k] = values[x]
	}
	cnt, ok := md.Base.Probe(key)
	return values, ok && cnt > 0
}

// SensitivityFn returns an evaluator of δ(t, Q, D) for tuples of the named
// relation, answered from the maintained multiplicity-table factors. The
// evaluator reads the live session state: it reflects updates applied after
// it was created, and must not race with them. It is invalidated by a full
// rebuild (Rebuild, or a bulk Apply) — request a fresh one afterwards.
// Skipped relations have no maintained factors; open the session without
// SkipRelations to evaluate them.
func (s *Session) SensitivityFn(rel string) (core.SensitivityFn, error) {
	ref, ok := s.memberOf[rel]
	if !ok {
		return nil, fmt.Errorf("incremental: query has no atom over relation %s", rel)
	}
	md := s.sol.Units[ref.ui].Members[ref.mi]
	if md.Skip {
		return nil, fmt.Errorf("incremental: relation %s is skipped; open the session without SkipRelations to evaluate it", rel)
	}
	varPos := make(map[string]int, len(md.Atom.Vars))
	for i, v := range md.Atom.Vars {
		varPos[v] = i
	}
	gts := s.memberGts[ref]
	groups := make([]core.ProbeGroup, 0, len(gts))
	for _, st := range gts {
		g := core.ProbeGroup{Table: st.table}
		for _, a := range st.table.Attrs {
			g.VarPos = append(g.VarPos, varPos[a])
		}
		groups = append(groups, g)
	}
	// The closure captures the live session state: maintained group tables
	// (patched in place) and the current cross-component scale.
	return core.ProbeEvaluator(len(md.Atom.Vars), s.selFn[rel],
		func() int64 { return s.sol.ScaleFor(ref.ui) }, groups), nil
}

// Rows returns the current rows of the named relation (a live, read-only
// view of the relation in the session's store, shared with every
// subscriber), or nil for relations the query does not reference.
func (s *Session) Rows(rel string) []relation.Tuple {
	if e := s.srows[rel]; e != nil {
		return e.Val.rel.Rows
	}
	return nil
}

// Rebuild discards all maintained state and recomputes it from the current
// session database, exactly as a fresh Open would, into a store of the
// session's own.
func (s *Session) Rebuild() error { return s.rebuild(s.detach()) }

// rebuild recomputes everything from rows, which detach has taken out of
// the session's former store, into a store of the session's own.
func (s *Session) rebuild(rows []*sharedRows) error {
	s.rebuilds++
	start := time.Now()
	if s.rebuildsTotal != nil {
		s.rebuildsTotal.Inc()
		defer s.rebuildSecs.ObserveSince(start)
	}
	err := s.build(NewPlanStore(), rows)
	if s.opts.Logger != nil {
		if err != nil {
			s.opts.Logger.Error("session rebuild failed",
				"query", s.q.Name, "rebuilds", s.rebuilds, "took", time.Since(start), "err", err)
		} else {
			s.opts.Logger.Info("session rebuild",
				"query", s.q.Name, "rebuilds", s.rebuilds, "rows", s.db.Size(), "took", time.Since(start))
		}
	}
	return err
}

// Updates returns the number of updates applied since Open.
func (s *Session) Updates() int { return s.updates }

// Rebuilds returns how many full rebuilds the session has performed.
func (s *Session) Rebuilds() int { return s.rebuilds }

// Query returns the session's pinned query.
func (s *Session) Query() *query.Query { return s.q }
