package main

import (
	"io"
	"testing"
	"time"
)

func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(5, k.run); n != 0 {
		t.Fatalf("the reference allocated %v objects per run", n)
	}
	if ms := k.measure(); ms <= 0 {
		t.Fatalf("reference time %v ms", ms)
	}
}

func TestRefTimesScale(t *testing.T) {
	if got := (refTimes{}).scale(); got != 1 {
		t.Errorf("no timings: scale %v, want 1", got)
	}
	// The lower quartile of 1..8 nominal times is 2: a machine that takes
	// twice the nominal time halves every timing.
	var r refTimes
	for i := 8; i >= 1; i-- {
		r = append(r, float64(i)*refNominalMS)
	}
	if got := r.ms(); got != 2*refNominalMS {
		t.Fatalf("reference %v ms, want %v", got, 2*refNominalMS)
	}
	if got := r.scale(); got != 0.5 {
		t.Errorf("scale %v, want 0.5", got)
	}
}

func TestParseMachineTimes(t *testing.T) {
	got, ok := parseMachineTimes("cpu  100 0 20 800 5 0 3 72 0 0\ncpu0 50 0 10 400 2 0 1 36 0 0\n")
	if !ok || got != (machineTimes{total: 1000, steal: 72}) {
		t.Fatalf("parsed %+v ok=%v", got, ok)
	}
	if got := stealShare(machineTimes{total: 1000, steal: 72}, machineTimes{total: 1400, steal: 112}); got != 0.1 {
		t.Errorf("40 of 400 ticks stolen: share %v", got)
	}
	for _, bad := range []string{"", "intr 1 2 3", "cpu  1 2 3"} {
		if _, ok := parseMachineTimes(bad); ok {
			t.Errorf("parsed %q", bad)
		}
	}
}

// TestRunSteadyRepeatsRunsWithSteal drives runSteady with a fake clock
// and steal counter: each run takes 30 s and has the steal listed for it.
func TestRunSteadyRepeatsRunsWithSteal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		steal  []uint64 // per run, ticks stolen of 100
		failed []int64  // per run
		runs   int
		pick   int // the run returned
	}{
		{"quiet machine", []uint64{1}, []int64{0}, 1, 0},
		{"repeats until quiet", []uint64{40, 20, 2, 0}, []int64{0, 0, 0, 0}, 3, 2},
		{"budget spent: least steal", []uint64{40, 20, 30, 50, 60, 70}, []int64{0, 0, 0, 0, 0, 0}, 5, 1},
		{"a failure is kept", []uint64{40, 50}, []int64{0, 1}, 2, 1},
	} {
		c := &fakeClock{t: time.Unix(1000, 0)}
		var ticks machineTimes
		n := 0
		run := func(*env) (*result, error) {
			c.Sleep(30 * time.Second)
			ticks.total += 100
			ticks.steal += tc.steal[n]
			r := &result{Workload: "w", Failed: tc.failed[n], Attempted: int64(n)}
			n++
			return r, nil
		}
		machine := func() (machineTimes, bool) { return ticks, true }
		r, err := runSteady(&env{log: io.Discard}, "w", run, c, machine)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != tc.runs || r.Attempted != int64(tc.pick) {
			t.Errorf("%s: %d runs, returned run %d; want %d runs, run %d", tc.name, n, r.Attempted, tc.runs, tc.pick)
		}
	}
}
