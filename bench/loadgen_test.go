package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or an operation
// spends time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDueAndCountsLateness(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	start := c.t
	ms := time.Millisecond
	// Operation 1 stalls for 35 ms; the three operations due during the
	// stall go out late and are charged from their due times.
	service := []time.Duration{2 * ms, 35 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms}
	s := &schedule{every: 10 * ms}
	s.op = func(due time.Time) (time.Time, bool) {
		c.Sleep(service[s.n])
		return c.Now(), true
	}
	openLoop(c, start, start.Add(60*ms), s)
	want := []struct{ late, lat time.Duration }{
		{0, 2 * ms}, {0, 35 * ms}, {25 * ms, 27 * ms}, {17 * ms, 19 * ms}, {9 * ms, 11 * ms}, {1 * ms, 3 * ms},
	}
	if len(s.ops) != len(want) {
		t.Fatalf("%d operations, want %d", len(s.ops), len(want))
	}
	for i, w := range want {
		o := s.ops[i]
		if o.due != start.Add(time.Duration(i)*10*ms) || o.late != w.late || o.lat != w.lat {
			t.Errorf("op %d: due +%v late %v lat %v, want due +%v late %v lat %v",
				i, o.due.Sub(start), o.late, o.lat, time.Duration(i)*10*ms, w.late, w.lat)
		}
	}
	p := phases{warm: start, measure: start.Add(20 * ms), trace: start.Add(60 * ms), end: start.Add(60 * ms)}
	lat, late := latencies(s.ops, p, phaseMeasure)
	if len(lat) != 4 || lat.max() != 27 || late.max() != 25 {
		t.Errorf("measured phase: latencies %v, lateness %v", lat, late)
	}
}

func TestOpenLoopInterleavesSchedulesByDueTime(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	start := c.t
	ms := time.Millisecond
	var order []string
	a := &schedule{every: 10 * ms}
	b := &schedule{every: 25 * ms}
	a.op = func(time.Time) (time.Time, bool) { order = append(order, "a"); return c.Now(), true }
	b.op = func(time.Time) (time.Time, bool) { order = append(order, "b"); return c.Now(), false }
	openLoop(c, start, start.Add(50*ms), a, b)
	got := ""
	for _, s := range order {
		got += s
	}
	// a@0 b@0 a@10 a@20 b@25 a@30 a@40; a tie goes to the first schedule,
	// and nothing due at the end is sent.
	if want := "abaabaa"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if len(b.ops) == 0 || b.ops[0].ok {
		t.Fatalf("failed operations must be recorded as failed: %+v", b.ops)
	}
	if lat, _ := latencies(b.ops, phases{warm: start, measure: start, trace: start.Add(time.Hour), end: start.Add(time.Hour)}, phaseMeasure); len(lat) != 0 {
		t.Fatalf("failed operations must not count as latency samples: %v", lat)
	}
}
