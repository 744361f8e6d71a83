package serve

// HTTP/JSON API over the Server. Endpoints (docs/SERVING.md has curl
// examples):
//
//	POST   /queries              register a query
//	GET    /queries              list registered queries
//	GET    /queries/{id}/ls      count + local sensitivity at the last epoch
//	POST   /queries/{id}/release ε-DP noisy release (budget-accounted)
//	DELETE /queries/{id}         unregister
//	POST   /updates              append updates (JSON, or text/csv stream)
//	GET    /epoch                writer progress
//	GET    /healthz              liveness (the process is up; nothing more)
//	GET    /readyz               readiness + role: leading/following/recovering
//
// Reads answer from published epoch views and never wait on the writers;
// POST /updates?wait=epoch (or "wait_epoch": true) blocks until the joined
// cut reaches the appended entries, so a subsequent view read of any query
// is guaranteed to reflect them. Every shard folds every update, so
// ?wait=1 (or "wait": true) waits the same way. /epoch reports the joined
// cut next to the per-shard watermarks; the "epoch" field of every
// response is always a consistent cut, never one shard's progress.
//
// GET /queries/{id}/ls exposes exact counts and sensitivities — it exists
// for the trusted operator and for differential testing. The only output
// safe to hand an untrusted analyst is POST /queries/{id}/release.

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"errors"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/core"
	"tsens/internal/csvio"
	"tsens/internal/ghd"
	"tsens/internal/mechanism"
	"tsens/internal/obs"
	"tsens/internal/parser"
	"tsens/internal/query"
	"tsens/internal/relation"
)

// Codec translates between wire values (strings) and the int64 attribute
// values relations store. csvio.Loader implements it, so a server loaded
// from CSVs shares one dictionary with its snapshot; IntCodec serves purely
// integer data.
type Codec interface {
	Encode(field string) (int64, error)
	Decode(v int64) string
}

// IntCodec is the Codec for databases whose values are all integers.
type IntCodec struct{}

// Encode parses field as a base-10 integer.
func (IntCodec) Encode(field string) (int64, error) {
	v, err := strconv.ParseInt(field, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: non-integer value %q needs a string codec (CSV loader)", field)
	}
	return v, nil
}

// Decode renders v in base 10.
func (IntCodec) Decode(v int64) string { return strconv.FormatInt(v, 10) }

// Role states reported by /readyz and used to gate writes.
const (
	// StateRecovering: the process is up but still replaying its WAL (or
	// mirrored) tail; reads would answer from an old cut, so /readyz is 503.
	StateRecovering = "recovering"
	// StateFollowing: a replication follower — wait-free epoch reads are
	// served here, state changes are refused with 503 + Retry-After (the
	// ε-ledger has exactly one writer: the leader).
	StateFollowing = "following"
	// StateLeading: the full API. A standalone server (no replication) is
	// always leading.
	StateLeading = "leading"
)

// Status is what /readyz reports and the write gate consults.
type Status struct {
	// State is one of StateRecovering/StateFollowing/StateLeading.
	State string `json:"state"`
	// Leader, when known on a follower, is the leader's replication address
	// — a hint for the failure-mode table, not a redirect target (the HTTP
	// address is deployment-specific).
	Leader string `json:"leader,omitempty"`
	// Epoch and Applied are a follower's replicated progress: the published
	// consistent cut its reads answer from, and the update LSN it has
	// applied. Zero on a leader (read /epoch there).
	Epoch   int64 `json:"epoch,omitempty"`
	Applied int64 `json:"applied,omitempty"`
	// LeaderAppended is the leader's acknowledged update LSN from the last
	// replication heartbeat; Lag is how far Applied trails it — the
	// staleness signal a bounded-staleness router reads from /readyz.
	LeaderAppended int64 `json:"leader_appended,omitempty"`
	Lag            int64 `json:"lag,omitempty"`
	// RetryAfterSeconds is the backoff a 503 response carries: on a
	// follower, observed replication lag times mean apply latency (clamped
	// to [1, 30]); 1 otherwise.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// retryAfter renders the Retry-After header value for a 503 under st.
func (st Status) retryAfter() string {
	if st.RetryAfterSeconds > 0 {
		return strconv.Itoa(st.RetryAfterSeconds)
	}
	return "1"
}

// API is the HTTP front end of a Server.
type API struct {
	codec Codec
	mux   *http.ServeMux

	// srv resolves the backing server per request. Fixed for a standalone
	// server, but a replication follower's backend moves underneath the
	// handler: nil until the first checkpoint lands, a fresh passive server
	// after a lineage reset, the recovered leading server after promotion —
	// so handlers resolve it per request instead of capturing one pointer.
	srv atomic.Pointer[func() *Server]

	// status reports the process role (nil = always leading, the standalone
	// default). Swapped atomically by the serve command as the process
	// recovers, follows, or promotes.
	status atomic.Pointer[func() Status]

	// metrics, when set, pins the registry behind /metrics and /debug/vars
	// (nil falls back to the backend server's).
	metrics atomic.Pointer[obs.Registry]

	// traces, when set, pins the recorder behind /debug/traces and the one
	// ingress traces start in (nil falls back to the backend server's) —
	// the same process-level pinning as metrics.
	traces atomic.Pointer[obs.TraceRecorder]

	rngMu sync.Mutex
	rng   *rand.Rand
}

// SetServer points the API at a fixed backing server (possibly replacing a
// resolver installed with SetServerFunc — the promotion path does exactly
// that).
func (a *API) SetServer(srv *Server) { a.SetServerFunc(func() *Server { return srv }) }

// SetServerFunc installs a dynamic backend resolver; fn returning nil means
// there is no state to serve yet and reads answer 503.
func (a *API) SetServerFunc(fn func() *Server) { a.srv.Store(&fn) }

func (a *API) server() *Server {
	if p := a.srv.Load(); p != nil {
		return (*p)()
	}
	return nil
}

// backend resolves the serving backend, answering 503 + Retry-After when
// none exists yet (a follower that has not received its first checkpoint);
// reports whether the request may proceed.
func (a *API) backend(w http.ResponseWriter) (*Server, bool) {
	srv := a.server()
	if srv == nil {
		st := a.Status()
		w.Header().Set("Retry-After", st.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "no state to serve yet",
			"state": st.State,
		})
		return nil, false
	}
	return srv, true
}

// SetStatus installs the role reporter backing /readyz and the write gate.
func (a *API) SetStatus(fn func() Status) { a.status.Store(&fn) }

// Status returns the current role (StateLeading when no reporter is set).
func (a *API) Status() Status {
	if p := a.status.Load(); p != nil {
		return (*p)()
	}
	return Status{State: StateLeading}
}

// gateWrite refuses state-changing requests unless this process leads,
// with Retry-After so a client retrying through a failover backs off
// instead of hammering; reports whether the request may proceed.
func (a *API) gateWrite(w http.ResponseWriter) bool {
	st := a.Status()
	if st.State == StateLeading {
		return true
	}
	// A follower's Retry-After tracks how stale it actually is: lag times
	// its observed mean apply latency, so a client backing off rejoins
	// roughly when the failover or catch-up has had time to land.
	w.Header().Set("Retry-After", st.retryAfter())
	out := map[string]any{
		"error": fmt.Sprintf("not leading (state %q): writes and releases are leader-only", st.State),
		"state": st.State,
	}
	if st.Leader != "" {
		out["leader"] = st.Leader
	}
	writeJSON(w, http.StatusServiceUnavailable, out)
	return false
}

// NewAPI wraps srv in an http.Handler. codec translates wire values (nil
// means IntCodec). seed seeds the release-noise source: 0 draws a
// cryptographically random seed — the production default, since a
// predictable seed replays the identical noise stream across restarts and
// lets an analyst diff it away. Fix the seed only to make tests
// reproducible.
func NewAPI(srv *Server, codec Codec, seed int64) *API {
	if codec == nil {
		codec = IntCodec{}
	}
	if seed == 0 {
		var b [8]byte
		_, _ = crand.Read(b[:]) // never fails as of go 1.24
		seed = int64(binary.LittleEndian.Uint64(b[:]))
	}
	a := &API{codec: codec, rng: rand.New(rand.NewSource(seed))}
	a.SetServer(srv)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", a.handleRegister)
	mux.HandleFunc("GET /queries", a.handleList)
	mux.HandleFunc("GET /queries/{id}/ls", a.handleLS)
	mux.HandleFunc("POST /queries/{id}/release", a.handleRelease)
	mux.HandleFunc("DELETE /queries/{id}", a.handleUnregister)
	mux.HandleFunc("POST /updates", a.handleUpdates)
	mux.HandleFunc("GET /epoch", a.handleEpoch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up. A recovering server is alive but
		// not ready — that distinction is /readyz's.
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The status body carries a follower's replicated epoch, applied
		// LSN, and lag behind the leader — the bounded-staleness signal.
		st := a.Status()
		code := http.StatusOK
		if st.State == StateRecovering {
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", st.retryAfter())
		}
		writeJSON(w, code, map[string]any{"ready": code == http.StatusOK, "state": st.State, "status": st})
	})
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /debug/vars", a.handleVars)
	mux.HandleFunc("GET /debug/traces", a.handleTraces)
	mux.HandleFunc("GET /debug/plans", a.handlePlans)
	a.mux = mux
	if srv != nil && srv.opts.Debug {
		a.EnableDebug()
	}
	return a
}

// SetMetrics pins the registry /metrics and /debug/vars render — the serve
// command passes its process-level registry so scrapes survive a
// follower's checkpoint resets and promotion. Without it, the handlers
// read the current backend server's registry.
func (a *API) SetMetrics(reg *obs.Registry) { a.metrics.Store(reg) }

func (a *API) registry() *obs.Registry {
	if r := a.metrics.Load(); r != nil {
		return r
	}
	if srv := a.server(); srv != nil {
		return srv.Metrics()
	}
	return nil // nil renders empty: obs is nil-receiver safe
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.registry().WritePrometheus(w)
}

func (a *API) handleVars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.registry().Snapshot())
}

// handlePlans reports per-shard subplan-sharing state (GET /debug/plans):
// which plan stores exist, how many join-tree nodes each has interned, and
// how many of those are maintained for more than one query.
func (a *API) handlePlans(w http.ResponseWriter, r *http.Request) {
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"domains": srv.PlanStats()})
}

// SetTraces pins the trace recorder /debug/traces renders and ingress
// records into — the serve command passes its process-level recorder so
// traces survive a follower's backend swaps, mirroring SetMetrics.
func (a *API) SetTraces(rec *obs.TraceRecorder) { a.traces.Store(rec) }

func (a *API) recorder() *obs.TraceRecorder {
	if rec := a.traces.Load(); rec != nil {
		return rec
	}
	if srv := a.server(); srv != nil {
		return srv.Traces()
	}
	return nil // nil recorder: Start and Traces are no-ops
}

// handleTraces serves the flight recorder's contents: sampled and slow
// traces, newest first. Query parameters: name (exact trace name),
// min_ms (minimum duration in milliseconds), limit (max traces).
func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	var f obs.TraceFilter
	q := r.URL.Query()
	f.Name = q.Get("name")
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", v))
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		f.Limit = n
	}
	rec := a.recorder()
	traces := rec.Traces(f)
	writeJSON(w, http.StatusOK, map[string]any{
		"slow_threshold_ms": float64(rec.SlowThreshold()) / float64(time.Millisecond),
		"count":             len(traces),
		"traces":            traces,
	})
}

// EnableDebug mounts net/http/pprof under /debug/pprof/. Opt-in
// (Options.Debug or the serve command's -debug flag): profiles expose
// operational detail no untrusted network should see.
func (a *API) EnableDebug() {
	a.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	a.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

type registerRequest struct {
	ID      string   `json:"id"`
	Query   string   `json:"query"`
	Bags    [][]int  `json:"bags"`
	Skip    []string `json:"skip"`
	Private string   `json:"private"`
	Release struct {
		Epsilon     float64 `json:"epsilon"`
		EpsilonSens float64 `json:"epsilon_sens"`
		Bound       int64   `json:"bound"`
	} `json:"release"`
	Budget float64 `json:"budget"`
	Drift  float64 `json:"drift"`
}

// decodeStrict decodes a JSON request body rejecting unknown fields: a
// misspelled option ("wait_epoc", "budge") must fail with 400, not silently
// drop the semantics the client asked for (read-your-writes, a budget cap —
// exactly the fields whose silent loss is least visible and most costly).
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

func (a *API) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !a.gateWrite(w) {
		return
	}
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	var req registerRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing \"query\""))
		return
	}
	name := req.ID
	if name == "" {
		name = "q"
	}
	q, err := parser.Parse(name, req.Query)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cfg := QueryConfig{
		ID:      req.ID,
		Query:   q,
		Private: req.Private,
		Budget:  req.Budget,
		Drift:   req.Drift,
		Release: mechanism.TSensDPConfig{
			Epsilon:     req.Release.Epsilon,
			EpsilonSens: req.Release.EpsilonSens,
			Bound:       req.Release.Bound,
		},
	}
	cfg.Options.SkipRelations = req.Skip
	if len(req.Bags) > 0 {
		d, err := ghd.FromBags(q, req.Bags)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		cfg.Options.Decomposition = d
	} else if !query.IsAcyclic(q.Atoms) {
		d, err := ghd.Search(q, 0)
		if err != nil {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("query is cyclic and no \"bags\" given; automatic search failed: %w", err))
			return
		}
		cfg.Options.Decomposition = d
	}
	id, v, err := srv.Register(cfg)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, a.viewJSON(id, v, false))
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": srv.Queries()})
}

func (a *API) handleLS(w http.ResponseWriter, r *http.Request) {
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	v, err := srv.View(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, a.viewJSON(id, v, r.URL.Query().Get("per_relation") == "1"))
}

func (a *API) handleRelease(w http.ResponseWriter, r *http.Request) {
	// Releases spend from the ε-ledger, which has exactly one writer — the
	// leader. A follower 503s with Retry-After rather than proxying, so the
	// budget arithmetic stays in one process.
	if !a.gateWrite(w) {
		return
	}
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	// The noise source is always the server's own seeded rng: a
	// client-chosen seed would let the analyst predict the Laplace noise
	// of a fresh release, voiding the DP guarantee this endpoint exists
	// to provide. Reject any body outright so clients of the removed
	// {"seed": N} parameter get a loud incompatibility, not silently
	// different semantics.
	if body := make([]byte, 1); r.Body != nil {
		if n, _ := r.Body.Read(body); n > 0 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("release takes no request body (client-supplied seeds are not accepted)"))
			return
		}
	}
	a.rngMu.Lock()
	rng := rand.New(rand.NewSource(a.rng.Int63()))
	a.rngMu.Unlock()
	res, err := srv.Release(id, rng)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ErrNoQuery) {
			status = http.StatusNotFound
		}
		writeErr(w, status, err)
		return
	}
	out := map[string]any{
		"id":          id,
		"epoch":       res.Epoch,
		"sens_epoch":  res.SensEpoch,
		"fresh":       res.Fresh,
		"noisy":       res.Run.Noisy,
		"global_sens": res.Run.GlobalSens,
		"spent":       res.Spent,
		"total_spent": res.TotalSpent,
	}
	if res.HasBudget {
		out["remaining"] = res.Remaining
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if !a.gateWrite(w) {
		return
	}
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	if err := srv.Unregister(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

type updateJSON struct {
	Op  string   `json:"op"` // "+" or "-"
	Rel string   `json:"rel"`
	Row []string `json:"row"`
}

type updatesRequest struct {
	Updates []updateJSON `json:"updates"`
	// Wait and WaitEpoch both block the response until the published
	// consistent cut covers the appended range (read-your-writes for
	// subsequent view reads); they differ only in spelling.
	Wait      bool `json:"wait"`
	WaitEpoch bool `json:"wait_epoch"`
}

func (a *API) handleUpdates(w http.ResponseWriter, r *http.Request) {
	ingressStart := time.Now()
	if !a.gateWrite(w) {
		return
	}
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	var (
		ups             []relation.Update
		wait, waitEpoch bool
	)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
		// The updates.stream format, for curl --data-binary @updates.stream
		// — same parser as the file loader, encoding through the codec.
		var err error
		if ups, err = csvio.ParseUpdates("request body", r.Body, a.codec.Encode); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else {
		var req updatesRequest
		if err := decodeStrict(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		wait, waitEpoch = req.Wait, req.WaitEpoch
		ups = make([]relation.Update, 0, len(req.Updates))
		for i, uj := range req.Updates {
			up := relation.Update{Rel: uj.Rel}
			switch uj.Op {
			case "+":
				up.Insert = true
			case "-":
				up.Insert = false
			default:
				writeErr(w, http.StatusBadRequest, fmt.Errorf("update %d: bad op %q (want + or -)", i, uj.Op))
				return
			}
			for j, f := range uj.Row {
				v, err := a.codec.Encode(f)
				if err != nil {
					writeErr(w, http.StatusBadRequest, fmt.Errorf("update %d, value %d: %w", i, j, err))
					return
				}
				up.Row = append(up.Row, v)
			}
			ups = append(ups, up)
		}
	}
	// Resolve the wait directive before appending, so an invalid request is
	// refused without having entered the log. Precedence (docs/SERVING.md
	// "Waiting on writes"): the query string wins over the body, and
	// directives that contradict each other — wait and wait_epoch both set
	// in the body, or a query string naming a different wait than the body
	// — are a 400 rather than a silent upgrade or downgrade.
	const (
		waitNone   = ""
		waitOne    = "1"
		waitEpoch_ = "epoch"
	)
	qKind := waitNone
	switch q := r.URL.Query().Get("wait"); q {
	case "":
	case "1":
		qKind = waitOne
	case "epoch":
		qKind = waitEpoch_
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad wait=%q (want 1 or epoch)", q))
		return
	}
	bodyKind := waitNone
	switch {
	case wait && waitEpoch:
		writeErr(w, http.StatusBadRequest, errors.New(`conflicting wait directives: body sets both "wait" and "wait_epoch"`))
		return
	case wait:
		bodyKind = waitOne
	case waitEpoch:
		bodyKind = waitEpoch_
	}
	if qKind != waitNone && bodyKind != waitNone && qKind != bodyKind {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("conflicting wait directives: query string requests %q, body requests %q", qKind, bodyKind))
		return
	}
	kind := qKind
	if kind == waitNone {
		kind = bodyKind
	}
	// The request's trace starts at the HTTP edge: "ingress" covers decode
	// up to the append; the server and its drain round add the
	// wal-append/fsync, shard-drain, and drain stages, and the last shard to
	// fold the round finishes the trace.
	tr := a.recorder().Start("update")
	tr.StageAt("ingress", ingressStart, time.Since(ingressStart))
	from, to, err := srv.AppendTraced(ups, tr)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	if kind != waitNone {
		// Consistent-cut wait: a subsequent view read of any query reflects
		// these updates. Blocks on every shard (a stalled one stalls the
		// cut), bounded by the request context: a client that hangs up stops
		// waiting instead of parking a watermark waiter forever.
		if err := srv.WaitAppliedCtx(r.Context(), to); err != nil {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	out := map[string]any{
		"accepted": len(ups),
		"from":     from,
		"to":       to,
		"epoch":    srv.Epoch(),
	}
	if id := tr.ID(); id != 0 {
		out["trace"] = id.String()
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) handleEpoch(w http.ResponseWriter, r *http.Request) {
	srv, ok := a.backend(w)
	if !ok {
		return
	}
	st := srv.Stats()
	// Two distinct notions of progress, reported under distinct names:
	// "epoch" is the PUBLISHED server epoch, while "joined" is the minimum
	// per-shard watermark. The per-shard "watermarks" are the authoritative
	// frontier: each shard advances its own entry independently and the
	// epoch chases their join, so epoch ≤ joined always, and equality holds
	// at rest (TestServeEpochPublishedNeverAheadOfJoined pins the invariant
	// under a stalled shard). Every view read through /queries is one exact
	// cut and never moves backwards, but a freshly registered query's first
	// view is taken at the fold frontier and may be ahead of "joined" until
	// every other shard catches up.
	var joined int64
	for i, wm := range st.Watermarks {
		if i == 0 || wm < joined {
			joined = wm
		}
	}
	out := map[string]any{
		"epoch":      st.Epoch,
		"joined":     joined,
		"shards":     st.Shards,
		"watermarks": st.Watermarks,
		"appended":   st.Appended,
		"pending":    st.Appended - st.Epoch,
		"skipped":    st.Skipped,
		"queries":    st.Queries,
	}
	if st.WAL {
		out["wal"] = true
		out["durable_epoch"] = st.DurableEpoch
	}
	writeJSON(w, http.StatusOK, out)
}

// viewJSON renders a published view, decoding witness tuples through the
// codec.
func (a *API) viewJSON(id string, v *View, perRelation bool) map[string]any {
	out := map[string]any{
		"id":             id,
		"epoch":          v.Epoch,
		"count":          v.Count,
		"ls":             v.LS.LS,
		"doubly_acyclic": v.LS.DoublyAcyclic,
		"max_degree":     v.LS.MaxDegree,
	}
	if v.LS.Best != nil {
		out["best"] = a.tupleJSON(v.LS.Best)
	}
	if perRelation {
		per := make(map[string]any, len(v.LS.PerRelation))
		for rel, tr := range v.LS.PerRelation {
			per[rel] = a.tupleJSON(tr)
		}
		out["per_relation"] = per
	}
	return out
}

func (a *API) tupleJSON(tr *core.TupleResult) map[string]any {
	vals := make([]string, len(tr.Vars))
	for i := range tr.Vars {
		if tr.Values == nil {
			vals[i] = "*"
		} else if tr.Wildcard[i] {
			vals[i] = "*"
		} else {
			vals[i] = a.codec.Decode(tr.Values[i])
		}
	}
	return map[string]any{
		"relation":    tr.Relation,
		"vars":        tr.Vars,
		"values":      vals,
		"sensitivity": tr.Sensitivity,
		"in_database": tr.InDatabase,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
