package main

import (
	"math"
	"testing"
)

func TestReconcile(t *testing.T) {
	// ack 0.8 ms, visible 4 ms; ingress + WAL append 0.24 ms, drain 2.5 ms.
	if err := reconcile(0.8, 4, 0.24, 2.5); err != nil {
		t.Fatalf("stages inside the end-to-end figures: %v", err)
	}
	// Within the slack: medians do not add exactly (0.8 + 3.5 ≤ 4 × 1.1).
	if err := reconcile(0.8, 4, 0.85, 3.5); err != nil {
		t.Errorf("within slack: %v", err)
	}
	for name, tc := range map[string][4]float64{
		"ingress + append exceed the ack": {0.8, 4, 0.94, 2.5},
		"ack + drain exceed visibility":   {0.8, 4, 0.24, 3.7},
		"no visibility samples":           {0.8, 0, 0.24, 2.5},
		"no ack samples":                  {0, 4, 0.24, 2.5},
	} {
		if err := reconcile(tc[0], tc[1], tc[2], tc[3]); err == nil {
			t.Errorf("%s: reconciled", name)
		}
	}
}

func TestHistBetweenDifferencesScrapes(t *testing.T) {
	a := parseScrape([]byte(`# HELP h_seconds x
# TYPE h_seconds histogram
h_seconds_bucket{shard="0",le="0.001"} 1
h_seconds_bucket{shard="0",le="0.01"} 1
h_seconds_bucket{shard="0",le="+Inf"} 1
h_seconds_sum{shard="0"} 0.0005
h_seconds_count{shard="0"} 1
h_seconds_bucket{shard="1",le="0.001"} 0
h_seconds_bucket{shard="1",le="0.01"} 0
h_seconds_bucket{shard="1",le="+Inf"} 0
h_seconds_sum{shard="1"} 0
h_seconds_count{shard="1"} 0
c_total 5
`))
	b := parseScrape([]byte(`h_seconds_bucket{shard="0",le="0.001"} 3
h_seconds_bucket{shard="0",le="0.01"} 5
h_seconds_bucket{shard="0",le="+Inf"} 5
h_seconds_sum{shard="0"} 0.0205
h_seconds_count{shard="0"} 5
h_seconds_bucket{shard="1",le="0.001"} 0
h_seconds_bucket{shard="1",le="0.01"} 4
h_seconds_bucket{shard="1",le="+Inf"} 5
h_seconds_sum{shard="1"} 0.1
h_seconds_count{shard="1"} 5
c_total 12
`))
	h := histBetween(a, b, "h_seconds", "")
	// Between the scrapes: 2 observations ≤ 1 ms, 6 in (1, 10] ms, 1 over.
	if h.count != 9 || math.Abs(h.sum-0.12) > 1e-12 {
		t.Fatalf("count %v sum %v", h.count, h.sum)
	}
	if got, want := h.quantile(0.5), 0.001+0.009*2.5/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got := h.lowerEdge(0.5); got != 0.001 {
		t.Errorf("p50 lies in (1, 10] ms, lower edge %v", got)
	}
	if got := h.lowerEdge(0.1); got != 0 {
		t.Errorf("p10 lies in the first bucket, lower edge %v", got)
	}
	if got := h.quantile(0.99); got != 0.01 {
		t.Errorf("p99 in the overflow bucket = %v, want the largest finite edge", got)
	}
	if got := histBetween(a, b, "h_seconds", `shard="1"`).count; got != 5 {
		t.Errorf("shard 1 count %v", got)
	}
	if got := b.family("c_total", "") - a.family("c_total", ""); got != 7 {
		t.Errorf("counter delta %v", got)
	}
}
