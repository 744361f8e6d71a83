// Package obs is a zero-dependency observability kernel: a metrics
// registry of atomic counters, gauges, and fixed-bucket histograms with
// Prometheus text exposition and a JSON snapshot, plus lightweight span
// hooks for tracing.
//
// Design constraints, in order:
//
//   - Hot-path cost is one atomic add (counters/gauges) or one atomic add
//     per bucket walk (histograms). No locks, no allocation, no channels
//     on the observation path. Instruments are safe for concurrent use.
//   - Everything is pull-based: the registry holds live instruments and
//     renders them on demand (WritePrometheus / Snapshot). There is no
//     background goroutine.
//   - Registration is idempotent get-or-create keyed by metric name, so
//     independent subsystems (a WAL, a session, a shard) can all ask for
//     the same family and share it. Re-registering a name with a
//     different type or label set panics: that is a programming error,
//     not a runtime condition.
//   - A nil *Registry is usable: constructors on a nil receiver return
//     fully functional detached instruments that are simply never
//     exported. Instrumented layers therefore never need nil checks.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the exposition type of a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefBuckets are the default latency buckets, in seconds: 1µs to 10s,
// roughly exponential. They cover everything from a single atomic view
// read or one view publish to a slow fsync on contended storage.
var DefBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025,
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are generic magnitude buckets (counts, bytes): 1 to 1M.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// ---------------------------------------------------------------------------
// Instruments

// Counter is a monotonically increasing integer.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative (counters are monotone).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Bounds are the
// inclusive upper edges of each bucket; one overflow (+Inf) bucket is
// appended implicitly.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets not strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket. Samples in the overflow bucket report the
// largest finite bound. Returns 0 when the histogram is empty.
//
// The rank and the scan derive from one snapshot of the bucket counts: a
// total taken in a separate pass could exceed the counts a later scan sees
// (an Observe landing between the passes), silently reporting the overflow
// bound for a mid-range quantile.
func (h *Histogram) Quantile(q float64) float64 {
	counts, total := h.snapshotCounts()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, bound := range h.bounds {
		n := float64(counts[i])
		if cum+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / n
			return lo + (bound-lo)*frac
		}
		cum += n
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// snapshotCounts returns a consistent-enough copy of the per-bucket
// cumulative counts and the total. Individual loads are atomic; the set
// is not a snapshot of one instant, but cumulative rendering below never
// decreases between scrapes for any le bound.
func (h *Histogram) snapshotCounts() (buckets []uint64, total uint64) {
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		total += buckets[i]
	}
	return buckets, total
}

// ---------------------------------------------------------------------------
// Families and vectors

type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	vals := make([]string, len(values))
	copy(vals, values)
	s = &series{labelValues: vals}
	switch f.kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = newHistogram(f.buckets)
	}
	f.series[key] = s
	return s
}

func (f *family) delete(values []string) {
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	delete(f.series, key)
	f.mu.Unlock()
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// Delete removes the series with the given label values.
func (v *CounterVec) Delete(values ...string) { v.f.delete(values) }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).gauge }

// Delete removes the series with the given label values.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values) }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

// Delete removes the series with the given label values.
func (v *HistogramVec) Delete(values ...string) { v.f.delete(values) }

// ---------------------------------------------------------------------------
// Registry

// SpanHook observes a completed span: its name and duration. Hooks must
// be fast and must not call back into the registry's span API.
type SpanHook func(name string, d time.Duration)

// Registry holds metric families and span hooks. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use, and
// every constructor method is safe on a nil receiver (returning detached
// instruments).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	hookMu     sync.RWMutex
	hooks      []spanHookEntry // copy-on-write: replaced wholesale, never mutated
	nextHookID uint64
}

// spanHookEntry pairs a hook with the identity OnSpan's remove closure
// deletes by. The slice holding entries is copy-on-write, so a Span that
// snapshotted it keeps a consistent view while hooks churn.
type spanHookEntry struct {
	id   uint64
	hook SpanHook
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labelNames []string) *family {
	if r == nil {
		// Detached: a private single-family holder, never exported.
		return &family{name: name, help: help, kind: kind, buckets: buckets,
			labelNames: labelNames, series: make(map[string]*series)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labelNames), f.kind, len(f.labelNames)))
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with label %q, was %q", name, labelNames[i], f.labelNames[i]))
			}
		}
		return f
	}
	names := make([]string, len(labelNames))
	copy(names, labelNames)
	f := &family{name: name, help: help, kind: kind, buckets: buckets,
		labelNames: names, series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// Counter returns the unlabeled counter with the given name, registering
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil).counter
}

// CounterVec returns the counter family with the given name and label
// names, registering it on first use.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, nil, labelNames)}
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil).gauge
}

// GaugeVec returns the gauge family with the given name and label names.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, nil, labelNames)}
}

// Histogram returns the unlabeled histogram with the given name. A nil
// buckets slice selects DefBuckets. Buckets are fixed at first
// registration; later callers inherit them.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, KindHistogram, buckets, nil).get(nil).hist
}

// HistogramVec returns the histogram family with the given name, buckets
// and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, KindHistogram, buckets, labelNames)}
}

// OnSpan registers a hook invoked for every completed span and returns a
// function that unregisters it. The hook list is copy-on-write: spans that
// already snapshotted it may still fire the hook once more after remove
// returns, but no new snapshot will include it. Safe on a nil receiver
// (the returned remove is a no-op).
func (r *Registry) OnSpan(h SpanHook) (remove func()) {
	if r == nil || h == nil {
		return func() {}
	}
	r.hookMu.Lock()
	r.nextHookID++
	id := r.nextHookID
	next := make([]spanHookEntry, len(r.hooks), len(r.hooks)+1)
	copy(next, r.hooks)
	r.hooks = append(next, spanHookEntry{id: id, hook: h})
	r.hookMu.Unlock()
	return func() {
		r.hookMu.Lock()
		defer r.hookMu.Unlock()
		for i, e := range r.hooks {
			if e.id == id {
				next := make([]spanHookEntry, 0, len(r.hooks)-1)
				next = append(next, r.hooks[:i]...)
				r.hooks = append(next, r.hooks[i+1:]...)
				return
			}
		}
	}
}

// Span starts a span and returns its stop function. Stopping observes
// the elapsed seconds into hist (if non-nil) and fires every registered
// span hook. Safe on a nil receiver.
//
//	defer reg.Span("drain_round", hist)()
func (r *Registry) Span(name string, hist *Histogram) func() {
	start := time.Now()
	return func() {
		d := time.Since(start)
		if hist != nil {
			hist.Observe(d.Seconds())
		}
		if r == nil {
			return
		}
		r.hookMu.RLock()
		hooks := r.hooks
		r.hookMu.RUnlock()
		for _, e := range hooks {
			e.hook(name, d)
		}
	}
}

// ---------------------------------------------------------------------------
// Exposition

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// labelString renders {k="v",...} from parallel name/value slices, with
// extra appended verbatim (used for the histogram le label). Returns ""
// when there are no labels.
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families and series in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		ss := f.sortedSeries()
		if len(ss) == 0 {
			continue
		}
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labelNames, s.labelValues, ""), s.counter.Value())
			case KindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labelNames, s.labelValues, ""), formatFloat(s.gauge.Value()))
			case KindHistogram:
				h := s.hist
				buckets, total := h.snapshotCounts()
				var cum uint64
				for i, bound := range h.bounds {
					cum += buckets[i]
					le := `le="` + formatFloat(bound) + `"`
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labelValues, le), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labelValues, `le="+Inf"`), total)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labelNames, s.labelValues, ""), formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labelNames, s.labelValues, ""), total)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns every series as a flat map from canonical sample name
// (name{label="value",...}) to value. Histograms contribute _count,
// _sum, and interpolated _p50/_p90/_p99 samples. The result is safe to
// encode as JSON (no Inf/NaN: such values are clamped to 0).
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	put := func(k string, v float64) {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = 0
		}
		out[k] = v
	}
	for _, f := range r.sortedFamilies() {
		for _, s := range f.sortedSeries() {
			ls := labelString(f.labelNames, s.labelValues, "")
			switch f.kind {
			case KindCounter:
				put(f.name+ls, float64(s.counter.Value()))
			case KindGauge:
				put(f.name+ls, s.gauge.Value())
			case KindHistogram:
				h := s.hist
				put(f.name+"_count"+ls, float64(h.Count()))
				put(f.name+"_sum"+ls, h.Sum())
				put(f.name+"_p50"+ls, h.Quantile(0.50))
				put(f.name+"_p90"+ls, h.Quantile(0.90))
				put(f.name+"_p99"+ls, h.Quantile(0.99))
			}
		}
	}
	return out
}

// Value returns the snapshot value of one canonical sample name and
// whether it exists. Intended for tests and assertions, not hot paths.
func (r *Registry) Value(sample string) (float64, bool) {
	v, ok := r.Snapshot()[sample]
	return v, ok
}
