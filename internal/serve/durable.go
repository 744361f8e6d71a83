package serve

// Durability: the serving layer's WAL + checkpoint integration
// (internal/serve/wal holds the storage substrate; docs/SERVING.md
// "Durability" the full treatment). With Options.WALDir set, the server
// journals every state-changing operation before acknowledging it:
//
//   - 'U' update records: Append writes (and, at Options.SyncEvery cadence,
//     fsyncs) the batch with its LSN range before it enters the in-memory
//     log — an acknowledged Append survives any crash.
//   - 'Q'/'X' registration records: Register/Unregister journal the full
//     query config under a registration sequence number before the change
//     becomes visible.
//   - 'R' release records: a fresh ε-spend is journaled (spent ε, the noisy
//     run, and the drift baseline) before the noisy value is returned, so a
//     restart can never reset a query's spent budget or forget a released
//     answer — the double-spend hole a purely in-memory ledger leaves open.
//
// Checkpoints snapshot the whole recoverable state at a consistent cut
// (master rows, registered configs, ledger totals, release caches, and the
// epoch they cover, plus the appended-but-undrained log tail) so recovery
// replays a bounded WAL suffix, and old segments are pruned. Recovery
// ordering is made crash-safe not by file position alone but by skip rules:
// update entries replay by LSN against the checkpoint's epoch, registration
// records by registration sequence, release records by per-query release
// sequence — re-encountering a covered record is always a no-op.
//
// Values travel in their textual form (Options.WALCodec; csvio's binary
// record codec), so replaying through the same codec rebuilds the string
// dictionary in write order and recovery needs nothing but the WAL
// directory.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"

	"tsens/internal/csvio"
	"tsens/internal/ghd"
	"tsens/internal/mechanism"
	"tsens/internal/obs"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/serve/wal"
)

// DefaultCheckpointEvery is the default checkpoint cadence: a new
// checkpoint is captured once this many log entries have drained since the
// last one.
const DefaultCheckpointEvery = 1024

// HasWALState reports whether dir holds recoverable serving state, without
// creating or touching anything. Callers use it to decide, before New,
// whether a boot will recover (the snapshot is then ignored and need not be
// loaded) or seed fresh (a database is required).
func HasWALState(dir string) (bool, error) {
	return wal.HasState(dir)
}

// WAL record kinds.
const (
	recUpdates    byte = 'U'
	recRegister   byte = 'Q'
	recUnregister byte = 'X'
	recRelease    byte = 'R'
)

// durableLog glues a Server to its WAL: codec, liveness gate, and the
// asynchronous checkpoint writer. A nil *durableLog (durability disabled)
// is valid for every append method.
type durableLog struct {
	log   *wal.Log
	codec Codec

	// m counts journaled records per kind (the right side of the
	// acked==journaled identity); set by newServer, nil in tests that
	// build a durableLog directly.
	m *serverMetrics

	// active is false while recovery replays the existing WAL through the
	// live server: replayed operations must not be re-journaled.
	active atomic.Bool

	// lastCapture is the epoch of the last checkpoint capture; owned by the
	// coordinator (maybeCheckpointLocked) under stateMu.
	lastCapture int64

	// durableEpoch is the epoch covered by the last durably installed
	// checkpoint (Stats.DurableEpoch).
	durableEpoch atomic.Int64

	ckptCh   chan *checkpoint
	ckptDone chan struct{}
}

func (d *durableLog) enabled() bool { return d != nil && d.active.Load() }

// appendUpdates journals one Append batch: its starting LSN, count, the
// updates as binary records, and a trailing trace ID. Called under logMu
// before the batch enters the in-memory log; a nil error means the
// acknowledgment is safe to hand out. The stats report where the time
// went for the batch's trace.
//
// The trace ID rides as a trailing uvarint: replayRecord reads exactly
// count records and always tolerated trailing bytes, so records written
// before tracing (no trailer) and after it replay identically, and the
// replication stream — which ships record payloads verbatim — carries
// the ID to followers with no protocol change.
func (d *durableLog) appendUpdates(from int64, ups []relation.Update, id obs.TraceID) (wal.AppendStats, error) {
	if !d.enabled() {
		return wal.AppendStats{}, nil
	}
	buf := binary.AppendUvarint(nil, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(len(ups)))
	for _, up := range ups {
		buf = csvio.AppendUpdateRecord(buf, up, d.codec.Decode)
	}
	buf = binary.AppendUvarint(buf, uint64(id))
	stats, err := d.log.AppendTimed(recUpdates, buf)
	if err != nil {
		return stats, err
	}
	if d.m != nil {
		d.m.walRecords.With(recKindName(recUpdates)).Inc()
	}
	return stats, nil
}

// UpdatesTraceID extracts the trace ID a journaled update record ('U')
// carries, or zero when the record predates tracing. It skips the update
// payload by frame lengths alone — no value decoding, no dictionary — so
// the replication apply path can tag its trace cheaply.
func UpdatesTraceID(data []byte) obs.TraceID {
	_, used := binary.Uvarint(data) // from
	if used <= 0 {
		return 0
	}
	data = data[used:]
	n, used := binary.Uvarint(data) // count
	if used <= 0 {
		return 0
	}
	data = data[used:]
	for j := uint64(0); j < n; j++ {
		rest, ok := skipBinaryRecord(data)
		if !ok {
			return 0
		}
		data = rest
	}
	id, used := binary.Uvarint(data)
	if used <= 0 {
		return 0 // pre-tracing record: no trailer
	}
	return obs.TraceID(id)
}

// skipBinaryRecord advances past one csvio binary record (field count,
// then length-prefixed fields) without materializing it.
func skipBinaryRecord(b []byte) (rest []byte, ok bool) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, false
	}
	b = b[used:]
	for i := uint64(0); i < n; i++ {
		l, used := binary.Uvarint(b)
		if used <= 0 || l > uint64(len(b[used:])) {
			return nil, false
		}
		b = b[used+int(l):]
	}
	return b, true
}

func (d *durableLog) appendJSON(kind byte, v any) error {
	if !d.enabled() {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("serve: wal record: %w", err)
	}
	if err := d.log.Append(kind, data); err != nil {
		return err
	}
	if d.m != nil {
		d.m.walRecords.With(recKindName(kind)).Inc()
	}
	return nil
}

// --- journaled record and checkpoint schemas ---

type atomJSON struct {
	Rel  string   `json:"rel"`
	Vars []string `json:"vars"`
}

type predJSON struct {
	Var   string `json:"var"`
	Op    int    `json:"op"`
	Value int64  `json:"value"`
}

// queryConfigJSON is the serializable form of a QueryConfig: the query
// structure itself (atoms and selections travel structurally, not as text,
// so no parser round-trip is needed) plus solver and release parameters.
// Selection constants are integer literals by construction (the parser
// accepts nothing else), so they persist as raw values.
type queryConfigJSON struct {
	ID          string                `json:"id"`
	Name        string                `json:"name"`
	Atoms       []atomJSON            `json:"atoms"`
	Sel         map[string][]predJSON `json:"sel,omitempty"`
	Private     string                `json:"private,omitempty"`
	Epsilon     float64               `json:"epsilon,omitempty"`
	EpsilonSens float64               `json:"epsilon_sens,omitempty"`
	Bound       int64                 `json:"bound,omitempty"`
	Budget      float64               `json:"budget,omitempty"`
	Drift       float64               `json:"drift,omitempty"`
	Skip        []string              `json:"skip,omitempty"`
	TopK        int                   `json:"topk,omitempty"`
	Bags        [][]int               `json:"bags,omitempty"`
}

type registerRecord struct {
	Seq    int64           `json:"seq"`
	Config queryConfigJSON `json:"config"`
}

type unregisterRecord struct {
	Seq int64  `json:"seq"`
	ID  string `json:"id"`
}

type releaseRecord struct {
	ID    string        `json:"id"`
	Seq   int           `json:"seq"` // per-query fresh-release sequence
	Spent float64       `json:"spent"`
	Count int64         `json:"count"` // drift baseline of the cached run
	Run   mechanism.Run `json:"run"`
}

// configJSON captures the query's registered configuration. Caller holds no
// locks; every field read here is immutable after Register.
func (sq *servedQuery) configJSON() queryConfigJSON {
	j := queryConfigJSON{
		ID:          sq.id,
		Name:        sq.q.Name,
		Private:     sq.private,
		Epsilon:     sq.cfg.Epsilon,
		EpsilonSens: sq.cfg.EpsilonSens,
		Bound:       sq.cfg.Bound,
		Drift:       sq.drift,
		Skip:        append([]string(nil), sq.sopts.SkipRelations...),
		TopK:        sq.sopts.TopK,
	}
	if sq.ledger != nil {
		j.Budget = sq.ledger.Budget()
	}
	if d := sq.sopts.Decomposition; d != nil {
		j.Bags = d.Bags
	}
	for _, a := range sq.q.Atoms {
		j.Atoms = append(j.Atoms, atomJSON{Rel: a.Relation, Vars: a.Vars})
	}
	if len(sq.q.Selections) > 0 {
		j.Sel = make(map[string][]predJSON, len(sq.q.Selections))
		for rel, preds := range sq.q.Selections {
			for _, p := range preds {
				j.Sel[rel] = append(j.Sel[rel], predJSON{Var: p.Var, Op: int(p.Op), Value: p.Value})
			}
		}
	}
	return j
}

// configFromJSON rebuilds a registerable QueryConfig.
func configFromJSON(j queryConfigJSON) (QueryConfig, error) {
	atoms := make([]query.Atom, len(j.Atoms))
	for i, a := range j.Atoms {
		atoms[i] = query.Atom{Relation: a.Rel, Vars: a.Vars}
	}
	var sels map[string][]query.Predicate
	if len(j.Sel) > 0 {
		sels = make(map[string][]query.Predicate, len(j.Sel))
		for rel, preds := range j.Sel {
			for _, p := range preds {
				sels[rel] = append(sels[rel], query.Predicate{Var: p.Var, Op: query.Op(p.Op), Value: p.Value})
			}
		}
	}
	name := j.Name
	if name == "" {
		name = j.ID
	}
	q, err := query.New(name, atoms, sels)
	if err != nil {
		return QueryConfig{}, fmt.Errorf("serve: recovering query %q: %w", j.ID, err)
	}
	cfg := QueryConfig{
		ID:      j.ID,
		Query:   q,
		Private: j.Private,
		Budget:  j.Budget,
		Drift:   j.Drift,
		Release: mechanism.TSensDPConfig{Epsilon: j.Epsilon, EpsilonSens: j.EpsilonSens, Bound: j.Bound},
	}
	cfg.Options.SkipRelations = j.Skip
	cfg.Options.TopK = j.TopK
	if len(j.Bags) > 0 {
		d, err := ghd.FromBags(q, j.Bags)
		if err != nil {
			return QueryConfig{}, fmt.Errorf("serve: recovering query %q: %w", j.ID, err)
		}
		cfg.Options.Decomposition = d
	}
	return cfg, nil
}

// checkpoint is one captured consistent cut of the recoverable state.
type checkpoint struct {
	gen      int64 // WAL generation rolled at capture; prune boundary
	epoch    int64 // cut the master rows describe
	appended int64 // LSN tip; pending covers [epoch, appended)
	skipped  int64
	regSeq   int64
	master   *relation.Database
	pending  []relation.Update
	queries  []ckptQuery
}

type ckptQuery struct {
	Config    queryConfigJSON        `json:"config"`
	Ledger    *mechanism.LedgerState `json:"ledger,omitempty"`
	Releases  int                    `json:"releases,omitempty"`
	LastCount int64                  `json:"last_count,omitempty"`
	LastRun   *mechanism.Run         `json:"last_run,omitempty"`
}

type ckptRelation struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	Rows  int      `json:"rows"`
}

type ckptMeta struct {
	Epoch     int64          `json:"epoch"`
	Appended  int64          `json:"appended"`
	Skipped   int64          `json:"skipped"`
	RegSeq    int64          `json:"reg_seq"`
	Relations []ckptRelation `json:"relations"`
	Pending   int            `json:"pending"`
	Queries   []ckptQuery    `json:"queries"`
}

// encodeCheckpoint renders a capture: a JSON meta header, then every
// relation's rows and the pending log tail as binary records, values in
// textual form so recovery re-interns the dictionary through the codec.
func encodeCheckpoint(ck *checkpoint, codec Codec) ([]byte, error) {
	meta := ckptMeta{
		Epoch:    ck.epoch,
		Appended: ck.appended,
		Skipped:  ck.skipped,
		RegSeq:   ck.regSeq,
		Pending:  len(ck.pending),
		Queries:  ck.queries,
	}
	names := ck.master.Names()
	for _, name := range names {
		r := ck.master.Relation(name)
		meta.Relations = append(meta.Relations, ckptRelation{Name: name, Attrs: r.Attrs, Rows: len(r.Rows)})
	}
	head, err := json.Marshal(&meta)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	buf := binary.AppendUvarint(nil, uint64(len(head)))
	buf = append(buf, head...)
	fields := make([]string, 0, 8)
	for _, name := range names {
		r := ck.master.Relation(name)
		for _, row := range r.Rows {
			fields = fields[:0]
			for _, v := range row {
				fields = append(fields, codec.Decode(v))
			}
			buf = csvio.AppendRecord(buf, fields...)
		}
	}
	for _, up := range ck.pending {
		buf = csvio.AppendUpdateRecord(buf, up, codec.Decode)
	}
	return buf, nil
}

// decodeCheckpoint is the inverse of encodeCheckpoint (gen is not part of
// the payload; the caller knows which file it read).
func decodeCheckpoint(data []byte, codec Codec) (*checkpoint, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > uint64(len(data)-used) {
		return nil, fmt.Errorf("serve: checkpoint: truncated meta header")
	}
	var meta ckptMeta
	if err := json.Unmarshal(data[used:used+int(n)], &meta); err != nil {
		return nil, fmt.Errorf("serve: checkpoint meta: %w", err)
	}
	rest := data[used+int(n):]
	var rels []*relation.Relation
	for _, cr := range meta.Relations {
		rows := make([]relation.Tuple, cr.Rows)
		for i := range rows {
			fields, r2, err := csvio.ReadRecord(rest)
			if err != nil {
				return nil, fmt.Errorf("serve: checkpoint rows of %s: %w", cr.Name, err)
			}
			rest = r2
			if len(fields) != len(cr.Attrs) {
				return nil, fmt.Errorf("serve: checkpoint row of %s has %d fields, want %d", cr.Name, len(fields), len(cr.Attrs))
			}
			row := make(relation.Tuple, len(fields))
			for j, f := range fields {
				v, err := codec.Encode(f)
				if err != nil {
					return nil, fmt.Errorf("serve: checkpoint value of %s: %w", cr.Name, err)
				}
				row[j] = v
			}
			rows[i] = row
		}
		r, err := relation.New(cr.Name, cr.Attrs, rows)
		if err != nil {
			return nil, fmt.Errorf("serve: checkpoint relation %s: %w", cr.Name, err)
		}
		rels = append(rels, r)
	}
	master, err := relation.NewDatabase(rels...)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint database: %w", err)
	}
	ck := &checkpoint{
		epoch:    meta.Epoch,
		appended: meta.Appended,
		skipped:  meta.Skipped,
		regSeq:   meta.RegSeq,
		master:   master,
		queries:  meta.Queries,
	}
	for i := 0; i < meta.Pending; i++ {
		up, r2, err := csvio.ReadUpdateRecord(rest, codec.Encode)
		if err != nil {
			return nil, fmt.Errorf("serve: checkpoint pending update %d: %w", i, err)
		}
		rest = r2
		ck.pending = append(ck.pending, up)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("serve: checkpoint: %d trailing bytes", len(rest))
	}
	return ck, nil
}

// --- capture and checkpoint writing ---

// captureCheckpointLocked snapshots the recoverable state at the current
// fold frontier. Caller holds stateMu (the coordinator between rounds, or
// boot/Close), under which the master rows reflect exactly the frontier —
// shards may still be draining queued rounds below it, but those rounds
// are already folded into the master, so recovery replaying the log past
// the frontier reconstructs the same state without any global quiesce.
// The capture rolls the WAL first so every record in older segments is
// covered by what it reads afterwards.
func (s *Server) captureCheckpointLocked() (*checkpoint, error) {
	gen, err := s.wal.log.Roll()
	if err != nil {
		return nil, err
	}
	ck := &checkpoint{
		gen:     gen,
		epoch:   s.frontier.Load(),
		skipped: s.skipped.Load(),
		regSeq:  s.regSeq,
		master:  s.master.Clone(),
	}
	s.logMu.Lock()
	ck.appended = s.appended.Load()
	if n := ck.appended - ck.epoch; n > 0 {
		start := ck.epoch - s.logBase
		ck.pending = append([]relation.Update(nil), s.log[start:start+n]...)
	}
	s.logMu.Unlock()
	s.qmu.RLock()
	sqs := make([]*servedQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		sqs = append(sqs, sq)
	}
	s.qmu.RUnlock()
	sort.Slice(sqs, func(i, j int) bool { return sqs[i].id < sqs[j].id })
	for _, sq := range sqs {
		cq := ckptQuery{Config: sq.configJSON()}
		// Ledger totals and the release sequence must be captured in one
		// relMu critical section: a concurrent fresh Release mutates both
		// together, and a capture that saw its releases++ but not its
		// Spend would make the recovery skip rule drop that spend —
		// exactly the budget amnesia this subsystem exists to prevent.
		sq.relMu.Lock()
		if sq.ledger != nil {
			st := sq.ledger.Export()
			cq.Ledger = &st
		}
		cq.Releases = sq.releases
		cq.LastCount = sq.lastCount
		if sq.lastRun != nil {
			run := *sq.lastRun
			cq.LastRun = &run
		}
		sq.relMu.Unlock()
		ck.queries = append(ck.queries, cq)
	}
	s.wal.lastCapture = ck.epoch
	return ck, nil
}

// maybeCheckpointLocked triggers an asynchronous checkpoint at the
// configured cadence. Coordinator-only, under stateMu after enqueueing a
// round.
func (s *Server) maybeCheckpointLocked(epoch int64) {
	dl := s.wal
	if !dl.enabled() || s.opts.CheckpointEvery <= 0 {
		return
	}
	if epoch-dl.lastCapture < int64(s.opts.CheckpointEvery) {
		return
	}
	if len(dl.ckptCh) != 0 {
		return // previous checkpoint still being written; retry next round
	}
	ck, err := s.captureCheckpointLocked()
	if err != nil {
		return // WAL failed; appends are failing loudly already
	}
	dl.ckptCh <- ck
}

// writeCheckpoint encodes and durably installs one capture, pruning covered
// segments.
func (s *Server) writeCheckpoint(ck *checkpoint) error {
	data, err := encodeCheckpoint(ck, s.wal.codec)
	if err != nil {
		return err
	}
	if err := s.wal.log.WriteCheckpoint(data, ck.gen); err != nil {
		return err
	}
	s.wal.durableEpoch.Store(ck.epoch)
	return nil
}

// checkpointSync captures and writes a checkpoint inline (boot and graceful
// Close; periodic checkpoints go through maybeCheckpointLocked instead).
func (s *Server) checkpointSync() error {
	s.stateMu.Lock()
	ck, err := s.captureCheckpointLocked()
	s.stateMu.Unlock()
	if err != nil {
		return err
	}
	return s.writeCheckpoint(ck)
}

// --- boot and recovery ---

// openDurable starts a durable server: fresh WAL directories are seeded
// with an initial checkpoint of db (after which the directory alone is
// sufficient to recover — db is a convenience, not a dependency), existing
// ones are recovered by loading the newest checkpoint and replaying the WAL
// tail through the ordinary serving machinery.
func openDurable(db *relation.Database, opts Options) (*Server, error) {
	dl, has, err := openWAL(opts)
	if err != nil {
		return nil, err
	}
	if !has {
		if db == nil {
			return nil, fmt.Errorf("serve: nil database and no recoverable state in %s", opts.WALDir)
		}
		s, err := newServer(db.Clone(), opts, serverInit{}, dl)
		if err != nil {
			return nil, err
		}
		if err := dl.log.StartAppending(); err != nil {
			s.CloseNow()
			return nil, err
		}
		dl.active.Store(true)
		if err := s.checkpointSync(); err != nil {
			s.CloseNow()
			return nil, err
		}
		return s, nil
	}
	s, err := recoverDurable(db, opts, dl, true)
	if err != nil {
		return nil, err
	}
	if err := s.checkpointSync(); err != nil { // prunes the replayed tail
		s.CloseNow()
		return nil, err
	}
	return s, nil
}

// openWAL opens opts.WALDir with the server's codec (IntCodec unless
// opts.WALCodec is set) and reports whether the directory holds any state
// to recover.
func openWAL(opts Options) (*durableLog, bool, error) {
	wlog, err := wal.Open(opts.WALDir, wal.Options{SyncEvery: opts.SyncEvery, FS: opts.WALFS, Metrics: opts.Metrics})
	if err != nil {
		return nil, false, err
	}
	codec := opts.WALCodec
	if codec == nil {
		codec = IntCodec{}
	}
	has, err := wlog.HasState()
	if err != nil {
		return nil, false, err
	}
	return &durableLog{
		log:      wlog,
		codec:    codec,
		ckptCh:   make(chan *checkpoint, 1),
		ckptDone: make(chan struct{}),
	}, has, nil
}

// recoverDurable rebuilds a server from the WAL directory: checkpoint state
// first, then the tail records, each gated by its skip rule so records
// already covered by the checkpoint replay as no-ops regardless of how the
// crash interleaved them with the capture. With activate the recovered
// server takes over the directory (opens a fresh append segment and starts
// journaling); without it the server stays passive — a replication follower
// that keeps applying records via ApplyReplicated while the Mirror, not
// this Log, owns the directory's write side.
func recoverDurable(db *relation.Database, opts Options, dl *durableLog, activate bool) (*Server, error) {
	data, _, ok, err := dl.log.LatestCheckpoint()
	if err != nil {
		return nil, err
	}
	var (
		ck     *checkpoint
		master *relation.Database
		init   serverInit
	)
	if ok {
		if ck, err = decodeCheckpoint(data, dl.codec); err != nil {
			return nil, err
		}
		master = ck.master
		init = serverInit{epoch: ck.epoch, skipped: ck.skipped}
	} else {
		// Segments without a checkpoint: abnormal under the boot protocol
		// (a fresh dir is seeded before serving), but recoverable from the
		// caller's snapshot plus a full replay.
		if db == nil {
			return nil, fmt.Errorf("serve: WAL %s has segments but no checkpoint and no database was given", opts.WALDir)
		}
		master = db.Clone()
	}
	s, err := newServer(master, opts, init, dl)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Server, error) {
		s.CloseNow()
		return nil, err
	}
	if ck != nil {
		for _, cq := range ck.queries {
			if err := s.restoreQuery(cq); err != nil {
				return fail(err)
			}
		}
		s.regSeq = ck.regSeq
		if len(ck.pending) > 0 {
			if _, _, err := s.Append(ck.pending); err != nil {
				return fail(fmt.Errorf("serve: replaying checkpoint tail: %w", err))
			}
		}
	}
	if err := dl.log.Replay(s.replayRecord); err != nil {
		return fail(err)
	}
	if err := s.WaitApplied(s.appended.Load()); err != nil {
		return fail(err)
	}
	if !activate {
		return s, nil
	}
	if err := dl.log.StartAppending(); err != nil {
		return fail(err)
	}
	dl.active.Store(true)
	return s, nil
}

// OpenFollower recovers a passive server from opts.WALDir: the newest
// checkpoint plus the mirrored tail replay through the ordinary recovery
// machinery, but the server neither opens an append segment nor journals —
// the replication Mirror owns the directory's write side, and every record
// it lands is applied live through ApplyReplicated. Reads (View/Count/LS,
// Queries, Stats) serve exactly as on a leader. Promotion closes this
// server and calls New(nil, opts) on the same directory — PR 5 recovery,
// verbatim — so a follower can only ever promote to what is durable on its
// own disk.
func OpenFollower(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.WALDir == "" {
		return nil, fmt.Errorf("serve: follower requires WALDir")
	}
	dl, has, err := openWAL(opts)
	if err != nil {
		return nil, err
	}
	if !has {
		return nil, fmt.Errorf("serve: follower state in %s is empty (mirror a checkpoint first)", opts.WALDir)
	}
	return recoverDurable(nil, opts, dl, false)
}

// ApplyReplicated applies one mirrored WAL record to a passive follower
// server — the same replay path recovery uses, so the skip rules make a
// record the local state already covers a no-op. The caller (the
// replication layer) must have made the record durable in the follower's
// own mirror before applying it, preserving "never serve what your own
// disk could lose". Records must arrive in log order from one goroutine.
func (s *Server) ApplyReplicated(kind byte, data []byte) error {
	return s.replayRecord(kind, data)
}

// restoreQuery re-registers one checkpointed query and restores its
// accounting: ledger totals and the release replay cache, so a replayed
// release neither re-spends ε nor re-draws noise.
func (s *Server) restoreQuery(cq ckptQuery) error {
	cfg, err := configFromJSON(cq.Config)
	if err != nil {
		return err
	}
	if _, _, err := s.Register(cfg); err != nil {
		return fmt.Errorf("serve: recovering query %q: %w", cq.Config.ID, err)
	}
	sq, err := s.lookup(cq.Config.ID)
	if err != nil {
		return err
	}
	if cq.Ledger != nil {
		ledger, err := mechanism.RestoreLedger(*cq.Ledger)
		if err != nil {
			return fmt.Errorf("serve: recovering ledger of %q: %w", cq.Config.ID, err)
		}
		sq.ledger = ledger
		s.budgetMetrics(sq)
	}
	sq.relMu.Lock()
	sq.releases = cq.Releases
	sq.lastCount = cq.LastCount
	if cq.LastRun != nil {
		run := *cq.LastRun
		sq.lastRun = &run
	}
	sq.relMu.Unlock()
	return nil
}

// replayRecord applies one WAL record during recovery, each kind under its
// skip rule.
func (s *Server) replayRecord(kind byte, data []byte) error {
	switch kind {
	case recUpdates:
		from, used := binary.Uvarint(data)
		if used <= 0 {
			return fmt.Errorf("serve: wal update record: truncated LSN")
		}
		data = data[used:]
		n, used := binary.Uvarint(data)
		if used <= 0 {
			return fmt.Errorf("serve: wal update record: truncated count")
		}
		data = data[used:]
		next := s.appended.Load()
		to := int64(from) + int64(n)
		if to <= next {
			return nil // fully covered by the checkpoint
		}
		if int64(from) > next {
			return fmt.Errorf("serve: wal gap: log resumes at %d but server is at %d", from, next)
		}
		ups := make([]relation.Update, 0, n)
		for i := uint64(0); i < n; i++ {
			up, rest, err := csvio.ReadUpdateRecord(data, s.wal.codec.Encode)
			if err != nil {
				return fmt.Errorf("serve: wal update record: %w", err)
			}
			data = rest
			ups = append(ups, up)
		}
		if _, _, err := s.Append(ups[next-int64(from):]); err != nil {
			return fmt.Errorf("serve: replaying updates at %d: %w", from, err)
		}
		return nil
	case recRegister:
		var rec registerRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("serve: wal register record: %w", err)
		}
		if rec.Seq <= s.regSeq {
			return nil
		}
		cfg, err := configFromJSON(rec.Config)
		if err != nil {
			return err
		}
		if _, _, err := s.Register(cfg); err != nil {
			return fmt.Errorf("serve: replaying registration of %q: %w", rec.Config.ID, err)
		}
		s.regSeq = rec.Seq
		return nil
	case recUnregister:
		var rec unregisterRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("serve: wal unregister record: %w", err)
		}
		if rec.Seq <= s.regSeq {
			return nil
		}
		if err := s.Unregister(rec.ID); err != nil {
			return fmt.Errorf("serve: replaying unregistration of %q: %w", rec.ID, err)
		}
		s.regSeq = rec.Seq
		return nil
	case recRelease:
		var rec releaseRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("serve: wal release record: %w", err)
		}
		sq, err := s.lookup(rec.ID)
		if err != nil {
			return nil // released, then unregistered before the crash
		}
		sq.relMu.Lock()
		defer sq.relMu.Unlock()
		if rec.Seq <= sq.releases {
			return nil // covered by the checkpoint's ledger totals
		}
		if sq.ledger != nil && rec.Spent > 0 {
			if err := sq.ledger.Spend(rec.Spent); err != nil {
				return fmt.Errorf("serve: replaying release %d of %q: %w", rec.Seq, rec.ID, err)
			}
		}
		run := rec.Run
		sq.lastRun = &run
		sq.lastCount = rec.Count
		sq.releases = rec.Seq
		s.budgetMetrics(sq)
		return nil
	default:
		return fmt.Errorf("serve: unknown wal record kind %q", kind)
	}
}
