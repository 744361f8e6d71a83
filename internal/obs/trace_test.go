package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []TraceID{1, 0xdeadbeef, ^TraceID(0), NewTraceID()} {
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("String(%d) = %q, want 16 hex digits", uint64(id), s)
		}
		got, ok := ParseTraceID(s)
		if !ok || got != id {
			t.Fatalf("ParseTraceID(%q) = %v, %v; want %v", s, got, ok, id)
		}
	}
	if _, ok := ParseTraceID(""); ok {
		t.Fatal("empty string parsed")
	}
	if _, ok := ParseTraceID("xyz"); ok {
		t.Fatal("non-hex parsed")
	}
	if _, ok := ParseTraceID("00112233445566778"); ok {
		t.Fatal("17 digits parsed")
	}
	if NewTraceID() == NewTraceID() {
		t.Fatal("NewTraceID repeated itself")
	}
}

// TestTraceNilSafe pins the no-instrumentation contract: a nil recorder
// starts nil traces, and every method on them is a no-op.
func TestTraceNilSafe(t *testing.T) {
	var r *TraceRecorder
	tr := r.Start("update")
	if tr != nil {
		t.Fatalf("nil recorder started %v", tr)
	}
	if tr.ID() != 0 {
		t.Fatal("nil trace has an ID")
	}
	tr.Stage("x")()
	tr.StageAt("y", time.Now(), time.Millisecond)
	if got := tr.Finish(); got != nil {
		t.Fatalf("nil Finish = %v", got)
	}
	if got := r.Traces(TraceFilter{}); got != nil {
		t.Fatalf("nil Traces = %v", got)
	}
	r.Record(nil)
}

func TestTraceStagesAndRegistry(t *testing.T) {
	reg := NewRegistry()
	r := NewTraceRecorder(reg, 8, 50*time.Millisecond)
	tr := r.Start("update")
	if tr.ID() == 0 {
		t.Fatal("no trace ID assigned")
	}
	tr.StageAt("wal-append", time.Now(), 3*time.Millisecond)
	tr.StageAt("drain", time.Now(), 7*time.Millisecond)
	done := tr.Finish()
	if done == nil || len(done.Stages) != 2 {
		t.Fatalf("Finish = %+v", done)
	}
	if again := tr.Finish(); again != nil {
		t.Fatalf("double Finish recorded %+v", again)
	}
	got := r.Traces(TraceFilter{})
	if len(got) != 1 || got[0].Name != "update" || got[0].IDText != done.ID.String() {
		t.Fatalf("Traces = %+v", got)
	}
	if v, ok := reg.Value("tsens_traces_total"); !ok || v != 1 {
		t.Fatalf("tsens_traces_total = %v, %v", v, ok)
	}
	if v, ok := reg.Value(`tsens_trace_stage_seconds_count{stage="wal-append"}`); !ok || v != 1 {
		t.Fatalf("stage histogram = %v, %v", v, ok)
	}
}

// record fabricates a completed trace with a controlled duration.
func record(r *TraceRecorder, name string, d time.Duration) *Trace {
	tr := &Trace{ID: NewTraceID(), Name: name, Start: time.Now(), Duration: d}
	tr.IDText = tr.ID.String()
	r.Record(tr)
	return tr
}

// TestTraceRecorderSlowAlwaysKept overflows the reservoir with fast
// traffic and checks the slow ring still holds the most recent slow
// traces regardless. Traces merges the ring with the reservoir, whose
// clock-seeded sampling may also still hold an older slow trace the ring
// has evicted: any trace beyond the most recent 4 must be one the
// reservoir holds.
func TestTraceRecorderSlowAlwaysKept(t *testing.T) {
	reg := NewRegistry()
	r := NewTraceRecorder(reg, 4, 10*time.Millisecond)
	for i := 0; i < 100; i++ {
		record(r, "fast", time.Millisecond)
	}
	var slow []*Trace
	for i := 0; i < 6; i++ { // more than capacity: ring keeps the last 4
		slow = append(slow, record(r, "slow", 20*time.Millisecond))
	}
	got := r.Traces(TraceFilter{MinDuration: 10 * time.Millisecond})
	returned := map[*Trace]bool{}
	for _, g := range got {
		if !g.Slow {
			t.Fatalf("trace %s over threshold not marked slow", g.IDText)
		}
		returned[g] = true
	}
	for _, s := range slow[2:] {
		if !returned[s] {
			t.Fatalf("slow trace %s missing: the ring must keep the most recent 4", s.IDText)
		}
		delete(returned, s)
	}
	r.mu.Lock()
	sampled := map[*Trace]bool{}
	for _, s := range r.sample {
		sampled[s] = true
	}
	r.mu.Unlock()
	for g := range returned {
		if !sampled[g] {
			t.Fatalf("trace %s returned but neither in the slow ring nor in the reservoir", g.IDText)
		}
	}
	if v, _ := reg.Value("tsens_traces_slow_total"); v != 6 {
		t.Fatalf("tsens_traces_slow_total = %v, want 6", v)
	}
	// The reservoir stays at capacity no matter how much passed through.
	if all := r.Traces(TraceFilter{}); len(all) > 8 {
		t.Fatalf("buffers exceed capacity: %d traces", len(all))
	}
}

func TestTraceRecorderFilter(t *testing.T) {
	r := NewTraceRecorder(nil, 16, time.Hour)
	record(r, "update", 5*time.Millisecond)
	record(r, "update", 15*time.Millisecond)
	record(r, "release", 25*time.Millisecond)
	if got := r.Traces(TraceFilter{Name: "release"}); len(got) != 1 || got[0].Name != "release" {
		t.Fatalf("name filter: %+v", got)
	}
	if got := r.Traces(TraceFilter{MinDuration: 10 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("min-duration filter kept %d", len(got))
	}
	if got := r.Traces(TraceFilter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit: %d", len(got))
	}
	all := r.Traces(TraceFilter{})
	for i := 1; i < len(all); i++ {
		if all[i].Start.After(all[i-1].Start) {
			t.Fatal("traces not newest-first")
		}
	}
}

// TestTraceRecorderRace hammers one recorder from concurrent writers
// (half of them slow, exercising the always-keep ring) while scrapers
// read Traces — the acceptance-criteria race coverage for the ring
// buffer.
func TestTraceRecorderRace(t *testing.T) {
	reg := NewRegistry()
	r := NewTraceRecorder(reg, 32, 5*time.Millisecond)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				tr := r.Start(fmt.Sprintf("writer%d", w))
				tr.StageAt("work", time.Now(), time.Duration(i%9)*time.Millisecond)
				d := time.Duration(i%10) * time.Millisecond
				done := &Trace{ID: tr.ID(), IDText: tr.ID().String(),
					Name: "hammer", Start: time.Now(), Duration: d}
				r.Record(done)
				tr.Finish()
			}
		}(w)
	}
	scrapeDone := make(chan error, 1)
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 200; i++ {
			for _, f := range []TraceFilter{{}, {Name: "hammer"}, {MinDuration: 5 * time.Millisecond, Limit: 10}} {
				got := r.Traces(f)
				if f.Limit > 0 && len(got) > f.Limit {
					scrapeDone <- fmt.Errorf("scrape %d: %d traces over limit %d", i, len(got), f.Limit)
					return
				}
			}
		}
	}()
	close(start)
	wg.Wait()
	if err, ok := <-scrapeDone; ok && err != nil {
		t.Fatal(err)
	}
	if total, _ := reg.Value("tsens_traces_total"); total != 2*writers*perWriter {
		t.Fatalf("tsens_traces_total = %v, want %d", total, 2*writers*perWriter)
	}
}

// TestOnSpanRemove pins the unregister semantics single-threaded before
// the race test churns them.
func TestOnSpanRemove(t *testing.T) {
	r := NewRegistry()
	var a, b int
	removeA := r.OnSpan(func(string, time.Duration) { a++ })
	removeB := r.OnSpan(func(string, time.Duration) { b++ })
	r.Span("s", nil)()
	if a != 1 || b != 1 {
		t.Fatalf("after first span: a=%d b=%d", a, b)
	}
	removeA()
	removeA() // idempotent
	r.Span("s", nil)()
	if a != 1 || b != 2 {
		t.Fatalf("after removeA: a=%d b=%d", a, b)
	}
	removeB()
	r.Span("s", nil)()
	if a != 1 || b != 2 {
		t.Fatalf("after removeB: a=%d b=%d", a, b)
	}
	var nilReg *Registry
	nilReg.OnSpan(func(string, time.Duration) {})() // remove on nil registry is a no-op
}

// TestOnSpanChurnRace runs concurrent span producers against a hook that
// unregisters and re-registers itself mid-stream — the satellite
// concurrency guarantee for the hook list. Counts must be consistent:
// every span fires the stable hook exactly once.
func TestOnSpanChurnRace(t *testing.T) {
	r := NewRegistry()
	var stable, churny int64
	var stableMu, churnyMu sync.Mutex
	r.OnSpan(func(string, time.Duration) {
		stableMu.Lock()
		stable++
		stableMu.Unlock()
	})
	churnHook := func(string, time.Duration) {
		churnyMu.Lock()
		churny++
		churnyMu.Unlock()
	}

	const producers = 8
	const perProducer = 2000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perProducer; i++ {
				r.Span("churn", nil)()
			}
		}()
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		<-start
		for i := 0; i < 500; i++ {
			remove := r.OnSpan(churnHook)
			r.Span("self", nil)()
			remove()
		}
	}()
	close(start)
	wg.Wait()
	<-churnDone
	if stable < producers*perProducer {
		t.Fatalf("stable hook fired %d times, want at least %d", stable, producers*perProducer)
	}
	if churny < 500 {
		t.Fatalf("churning hook fired %d times, want at least its own 500 spans", churny)
	}
}
