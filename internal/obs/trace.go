package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A trace follows one unit of work — typically an
// appended update batch — through named stages (ingress, wal-append,
// wal-fsync, shard-drain, drain, and on a follower mirror+apply). The
// ID is assigned once at ingress and rides the WAL record payload through
// the replication stream, so the leader's and follower's halves of the
// same update share it.
//
// Completed traces land in a TraceRecorder: a fixed-size reservoir sample
// of everything plus an always-keep ring of traces exceeding the slow
// threshold. GET /debug/traces serves them; per-stage durations also feed
// a histogram vector in the registry, so aggregates stay scrapeable even
// after the buffers cycle.

// TraceID identifies one traced unit of work across processes. Zero means
// "untraced".
type TraceID uint64

const hexDigits = "0123456789abcdef"

// String renders the ID as 16 lowercase hex digits.
func (id TraceID) String() string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses the 16-hex-digit form String produces (shorter
// strings parse as their value; anything non-hex fails).
func ParseTraceID(s string) (TraceID, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	return TraceID(v), true
}

// traceIDCounter seeds per-process ID generation: high bits from the
// process start time (so two processes in one trace rarely collide), low
// bits a counter.
var traceIDCounter atomic.Uint64

func init() {
	traceIDCounter.Store(uint64(time.Now().UnixNano()) << 16)
}

// NewTraceID returns a fresh process-unique trace ID.
func NewTraceID() TraceID {
	for {
		if id := TraceID(traceIDCounter.Add(1)); id != 0 {
			return id
		}
	}
}

// Stage is one named, timed step inside a trace. Offset is measured from
// the trace's start, so a JSON consumer can reconstruct the timeline
// without absolute clocks.
type Stage struct {
	Name     string        `json:"name"`
	OffsetNS int64         `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// Trace is a completed trace as stored and served.
type Trace struct {
	ID       TraceID       `json:"-"`
	IDText   string        `json:"id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Slow     bool          `json:"slow"`
	Stages   []Stage       `json:"stages"`
}

// ActiveTrace accumulates stages for one in-flight unit of work. All
// methods are safe on a nil receiver (no-ops), so untraced paths pay
// nothing, and safe for concurrent use — shards and the WAL append can
// record stages from different goroutines.
type ActiveTrace struct {
	id    TraceID
	name  string
	start time.Time
	rec   *TraceRecorder

	mu     sync.Mutex
	stages []Stage
	done   bool
}

// ID returns the trace's ID, or zero on a nil receiver.
func (t *ActiveTrace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// StageAt records a stage that started at the given time and lasted d.
func (t *ActiveTrace) StageAt(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.start)
	t.mu.Lock()
	if !t.done {
		t.stages = append(t.stages, Stage{Name: name, OffsetNS: int64(off), Duration: d})
	}
	t.mu.Unlock()
}

// Stage starts a stage now and returns the function that ends it:
//
//	defer tr.Stage("publish")()
func (t *ActiveTrace) Stage(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.StageAt(name, start, time.Since(start)) }
}

// Finish completes the trace, hands it to the recorder, and returns the
// stored form (nil on a nil receiver or a double Finish).
func (t *ActiveTrace) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	stages := t.stages
	t.mu.Unlock()
	d := time.Since(t.start)
	tr := &Trace{
		ID:       t.id,
		IDText:   t.id.String(),
		Name:     t.name,
		Start:    t.start,
		Duration: d,
		Stages:   stages,
	}
	if t.rec != nil {
		t.rec.Record(tr)
	}
	return tr
}

// TraceRecorder keeps completed traces in two fixed buffers: a reservoir
// sample of all traffic (uniform over everything recorded since start)
// and a ring of the most recent slow traces, which are always kept. It is
// safe for concurrent use by writers and scrapers.
type TraceRecorder struct {
	slowThreshold time.Duration

	stageSecs *HistogramVec // tsens_trace_stage_seconds{stage}
	total     *Counter      // tsens_traces_total
	slowTotal *Counter      // tsens_traces_slow_total

	mu       sync.Mutex
	sample   []*Trace // reservoir, capacity cap
	seen     uint64   // traces offered to the reservoir
	slowRing []*Trace // most recent slow traces, capacity cap
	slowNext int
	slowLen  int
	rng      uint64 // xorshift64 state for reservoir admission
}

// DefaultTraceCapacity bounds each buffer when NewTraceRecorder is given
// a non-positive capacity.
const DefaultTraceCapacity = 256

// DefaultSlowThreshold marks traces slow when NewTraceRecorder is given a
// non-positive threshold.
const DefaultSlowThreshold = 100 * time.Millisecond

// NewTraceRecorder returns a recorder with the given per-buffer capacity
// and slow threshold (non-positive values select the defaults). When reg
// is non-nil, per-stage durations and trace counts are also published
// there.
func NewTraceRecorder(reg *Registry, capacity int, slow time.Duration) *TraceRecorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	r := &TraceRecorder{
		slowThreshold: slow,
		sample:        make([]*Trace, 0, capacity),
		slowRing:      make([]*Trace, capacity),
		rng:           uint64(time.Now().UnixNano()) | 1,
	}
	if reg != nil {
		r.stageSecs = reg.HistogramVec("tsens_trace_stage_seconds",
			"Per-stage trace durations.", DefBuckets, "stage")
		r.total = reg.Counter("tsens_traces_total", "Completed traces recorded.")
		r.slowTotal = reg.Counter("tsens_traces_slow_total",
			"Completed traces over the slow threshold.")
	}
	return r
}

// SlowThreshold reports the configured slow threshold (0 on nil).
func (r *TraceRecorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.slowThreshold
}

// Start begins a trace with a fresh ID. Safe on a nil receiver: returns
// nil, and every ActiveTrace method on that nil is a no-op.
func (r *TraceRecorder) Start(name string) *ActiveTrace {
	if r == nil {
		return nil
	}
	return r.StartWith(NewTraceID(), name)
}

// StartWith begins a trace under an externally assigned ID — the follower
// adopting the leader's ID from the replicated record.
func (r *TraceRecorder) StartWith(id TraceID, name string) *ActiveTrace {
	if r == nil {
		return nil
	}
	return &ActiveTrace{id: id, name: name, start: time.Now(), rec: r}
}

// xorshift64 steps the reservoir's private RNG; math/rand stays out of
// the hot path and seeding stays local.
func (r *TraceRecorder) randn(n uint64) uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x % n
}

// Record admits a completed trace: always into the stage histograms,
// reservoir-sampled into the sample buffer, and unconditionally into the
// slow ring when over threshold.
func (r *TraceRecorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	t.Slow = t.Duration >= r.slowThreshold
	if r.stageSecs != nil {
		for _, s := range t.Stages {
			r.stageSecs.With(s.Name).Observe(s.Duration.Seconds())
		}
	}
	if r.total != nil {
		r.total.Inc()
	}
	if t.Slow && r.slowTotal != nil {
		r.slowTotal.Inc()
	}
	r.mu.Lock()
	r.seen++
	if len(r.sample) < cap(r.sample) {
		r.sample = append(r.sample, t)
	} else if i := r.randn(r.seen); i < uint64(cap(r.sample)) {
		r.sample[i] = t
	}
	if t.Slow {
		r.slowRing[r.slowNext] = t
		r.slowNext = (r.slowNext + 1) % len(r.slowRing)
		if r.slowLen < len(r.slowRing) {
			r.slowLen++
		}
	}
	r.mu.Unlock()
}

// TraceFilter selects traces out of Traces. The zero value matches
// everything.
type TraceFilter struct {
	Name        string        // exact trace name, "" = any
	MinDuration time.Duration // keep traces at least this long
	Limit       int           // max traces returned, 0 = all
}

// Traces returns the recorder's current contents — slow ring and
// reservoir merged, deduplicated, newest first — filtered by f. The
// returned slice is a snapshot; traces themselves are immutable once
// recorded.
func (r *TraceRecorder) Traces(f TraceFilter) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	merged := make([]*Trace, 0, len(r.sample)+r.slowLen)
	seen := make(map[*Trace]struct{}, len(r.sample)+r.slowLen)
	for i := 0; i < r.slowLen; i++ {
		t := r.slowRing[(r.slowNext-1-i+len(r.slowRing))%len(r.slowRing)]
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			merged = append(merged, t)
		}
	}
	for _, t := range r.sample {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			merged = append(merged, t)
		}
	}
	r.mu.Unlock()
	out := merged[:0]
	for _, t := range merged {
		if f.Name != "" && t.Name != f.Name {
			continue
		}
		if t.Duration < f.MinDuration {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}
