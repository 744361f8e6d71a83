package main

import (
	"fmt"
	"sort"
	"time"
)

// dist is a sorted sample of one measured quantity.
type dist []float64

// newDist sorts a copy of vals.
func newDist(vals []float64) dist {
	d := append(dist(nil), vals...)
	sort.Float64s(d)
	return d
}

// durations converts latencies to a dist in the given unit.
func durations(ds []time.Duration, unit time.Duration) dist {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d) / float64(unit)
	}
	return newDist(vals)
}

// scaled returns the sample with every value multiplied by f.
func (d dist) scaled(f float64) dist {
	out := make(dist, len(d))
	for i, v := range d {
		out[i] = v * f
	}
	return out
}

// rank is the 1-based nearest rank of the per-mille percentile pm among n
// samples: the smallest rank with at least pm/1000 of the sample at or
// below it. Integer arithmetic keeps p99 of 1000 samples at rank 990.
func rank(n, pm int) int {
	r := (n*pm + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// pct returns the nearest-rank per-mille percentile (500 = p50), or 0 for
// an empty sample.
func (d dist) pct(pm int) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), pm)-1]
}

// beyond is the number of samples ranked strictly above percentile pm.
func (d dist) beyond(pm int) int { return len(d) - rank(len(d), pm) }

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailLadder lists the percentiles the tail rule chooses among, highest
// first, in per mille.
var tailLadder = []int{999, 990, 900, 500}

// tail applies the reporting rule for a timing's upper percentile: the
// highest percentile with at least ten samples beyond it. It returns the
// percentile's name ("p99"), its value, and false when even the median
// lacks ten samples beyond it.
func (d dist) tail() (name string, value float64, ok bool) {
	for _, pm := range tailLadder {
		if d.beyond(pm) >= minBeyond {
			return pctName(pm), d.pct(pm), true
		}
	}
	return "", 0, false
}

// supports reports whether percentile pm has ten samples beyond it.
func (d dist) supports(pm int) bool { return d.beyond(pm) >= minBeyond }

func pctName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%d.%d", pm/10, pm%10)
}

// quartiles returns the first quartile, median and third quartile of vals
// by the method of Python's statistics.quantiles(vals, n=4) (the default
// "exclusive" method), so spreads computed here match the ones a Python
// reader computes from the same values. A single value is its own
// quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := newDist(vals)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

// median is the middle value of a sorted sample, or the mean of the two
// middle values (Python's statistics.median).
func median(d dist) float64 {
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, med, q3 := quartiles(vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}
