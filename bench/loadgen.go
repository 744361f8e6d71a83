package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source of the load generator; tests substitute a fake
// one to check the due-time accounting.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Sleep blocks the thread in nanosleep rather than parking on a runtime
// timer: the runtime's idle timer wait has millisecond granularity, which
// would make the generator up to a millisecond late on every operation of
// a schedule paced in milliseconds.
func (realClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// opSample is one operation of a load generator. Lateness and latency are
// both measured from the time the operation was due, so a stall is charged
// to every operation it delays, not only to the one that stalled.
type opSample struct {
	due  time.Time
	late time.Duration // sent − due
	lat  time.Duration // completed − due
	ok   bool
}

// schedule is one fixed-rate stream of an open-loop generator: operation i
// is due at start + i·every, whether or not earlier ones have completed.
type schedule struct {
	every time.Duration
	// op sends one operation and returns when it completed and whether it
	// succeeded.
	op  func(due time.Time) (done time.Time, ok bool)
	n   int64
	ops []opSample
}

// openLoop runs the schedules on the calling goroutine from start until
// end, always sending the operation due earliest next: on time when the
// generator is free, else as soon as it is.
func openLoop(c clock, start, end time.Time, scheds ...*schedule) {
	for {
		var next *schedule
		var due time.Time
		for _, s := range scheds {
			d := start.Add(time.Duration(s.n) * s.every)
			if next == nil || d.Before(due) {
				next, due = s, d
			}
		}
		if next == nil || !due.Before(end) {
			return
		}
		if w := due.Sub(c.Now()); w > 0 {
			c.Sleep(w)
		}
		sent := c.Now()
		done, ok := next.op(due)
		next.ops = append(next.ops, opSample{due: due, late: sent.Sub(due), lat: done.Sub(due), ok: ok})
		next.n++
	}
}

// phases splits a run by wall-clock time. Warm-up runs from warm to
// measure; the untraced measured phase from measure to trace; the traced
// phase (trace runs only; else trace == end) from trace to end. Operations
// belong to the phase their due time falls in.
type phases struct {
	warm, measure, trace, end time.Time
}

const (
	phaseWarm = iota
	phaseMeasure
	phaseTrace
	phaseAfter
)

func (p phases) of(t time.Time) int {
	switch {
	case t.Before(p.measure):
		return phaseWarm
	case t.Before(p.trace):
		return phaseMeasure
	case t.Before(p.end):
		return phaseTrace
	}
	return phaseAfter
}

// latencies returns the latencies (in ms) and lateness values (in ms) of
// the successful operations due in one phase.
func latencies(ops []opSample, p phases, phase int) (lat, late dist) {
	var l, z []time.Duration
	for _, o := range ops {
		if o.ok && p.of(o.due) == phase {
			l = append(l, o.lat)
			z = append(z, o.late)
		}
	}
	return durations(l, time.Millisecond), durations(z, time.Millisecond)
}

// response is a reusable in-memory http.ResponseWriter: requests go
// straight to the API handler, with no sockets.
type response struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *response) Header() http.Header { return r.hdr }

func (r *response) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *response) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// client drives one API handler from one goroutine.
type client struct {
	h    http.Handler
	resp response
}

func newClient(h http.Handler) *client {
	return &client{h: h, resp: response{hdr: http.Header{}}}
}

// newRoute prebuilds a request; client.do sends a shallow copy of it, so
// the per-request cost on the generator side is a struct copy.
func newRoute(method, target string) *http.Request {
	req, err := http.NewRequest(method, target, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: bad route %s %s: %v", method, target, err))
	}
	return req
}

// do sends one request and returns its status and body. The body is valid
// until the next call.
func (c *client) do(route *http.Request, body []byte) (int, []byte) {
	r := *route
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	} else {
		r.Body = http.NoBody
	}
	clear(c.resp.hdr)
	c.resp.code = 0
	c.resp.body.Reset()
	c.h.ServeHTTP(&c.resp, &r)
	return c.resp.code, c.resp.body.Bytes()
}

// tally counts attempted and failed operations and checks. Failures are
// non-2xx responses, failed correctness checks, skipped deletes and ledger
// mismatches.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
}

// maxFailureNotes bounds the failure messages kept for the report.
const maxFailureNotes = 20

// check counts one attempt and, when ok is false, one failure.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		t.mu.Lock()
		if len(t.failures) < maxFailureNotes {
			t.failures = append(t.failures, fmt.Sprintf(format, args...))
		}
		t.mu.Unlock()
	}
	return ok
}

// span is one benchmark-side trace span around a call into the program.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds the traced phase's spans in memory until the run ends.
// Recording is on only while the traced phase runs; every method is safe
// for concurrent use.
type spanLog struct {
	base time.Time
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog(base time.Time) *spanLog { return &spanLog{base: base} }

// id returns a fresh span ID while tracing is on, else 0; a parent span
// takes its ID before its children are recorded.
func (l *spanLog) id() uint64 {
	if l == nil || !l.on.Load() {
		return 0
	}
	return l.next.Add(1)
}

// add records a span when tracing is on and returns its ID (0 when off).
func (l *spanLog) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := l.id()
	if id != 0 {
		l.record(id, name, parent, req, start, end)
	}
	return id
}

// record stores a span under an ID taken from id.
func (l *spanLog) record(id uint64, name string, parent, req uint64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// all returns the recorded spans.
func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// durationsOf returns the durations (in the given unit) of the spans with
// the given name.
func durationsOf(spans []span, name string, unit time.Duration) dist {
	var ds []time.Duration
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return durations(ds, unit)
}
