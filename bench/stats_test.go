package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileIsNearestRank(t *testing.T) {
	d := newDist(seq(10))
	for _, tc := range []struct {
		pm   int
		want float64
	}{{500, 5}, {900, 9}, {990, 10}, {1, 1}, {1000, 10}} {
		if got := d.pct(tc.pm); got != tc.want {
			t.Errorf("p%v of 1..10 = %v, want %v", float64(tc.pm)/10, got, tc.want)
		}
	}
	if got := newDist(nil).pct(500); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		name   string
		beyond int
		ok     bool
	}{
		{10000, "p99.9", 10, true},
		{9999, "p99", 99, true},
		{1000, "p99", 10, true},
		{999, "p90", 99, true},
		{100, "p90", 10, true},
		{99, "p50", 49, true},
		{20, "p50", 10, true},
		{19, "", 0, false},
	} {
		d := newDist(seq(tc.n))
		name, val, ok := d.tail()
		if ok != tc.ok || name != tc.name {
			t.Errorf("n=%d: tail %q ok=%v, want %q ok=%v", tc.n, name, ok, tc.name, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		var pm int
		for _, p := range tailLadder {
			if pctName(p) == name {
				pm = p
			}
		}
		if got := d.beyond(pm); got != tc.beyond {
			t.Errorf("n=%d: %d samples beyond %s, want %d", tc.n, got, name, tc.beyond)
		}
		if val != d.pct(pm) || !d.supports(pm) {
			t.Errorf("n=%d: tail value %v, pct %v", tc.n, val, d.pct(pm))
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Values from Python: statistics.quantiles(data, n=4) and
	// statistics.median(data).
	for _, tc := range []struct {
		data         []float64
		q1, med, q3  float64
		spreadOfData float64
	}{
		{seq(10), 2.75, 5.5, 8.25, 5.5 / 5.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 2.5 / 2.5},
		{[]float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}, 9.9, 10, 10.125, 0.0225},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5 / 1.5},
	} {
		q1, med, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(med-tc.med) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		if got := spread(tc.data); math.Abs(got-tc.spreadOfData) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.data, got, tc.spreadOfData)
		}
	}
}
