package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median returns the middle of xs (0 for an empty sample).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// medianOfMedians is the median of the groups' medians, leaving out
// groups with no samples.
func medianOfMedians(groups [][]float64) float64 {
	var ms []float64
	for _, g := range groups {
		if len(g) > 0 {
			ms = append(ms, median(g))
		}
	}
	return median(ms)
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match the ones a Python
// script computes from the same runs. A single sample is its own
// quartiles; an empty one gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range of xs as a share of its median, the
// run-to-run noise measure the bounds in BENCHMARK.json are checked
// against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// minBeyond is how many samples must lie above a reported percentile
// for it to be more than the sample's few largest values.
const minBeyond = 10

// tail returns the highest of the candidate percentiles (in percent,
// highest first) that has at least minBeyond samples above it by the
// nearest-rank rule, with ok false when even the last candidate has too
// few, as with a sample of fewer than 10/(1-p) values.
func tail(xs []float64, candidates ...float64) (p, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range candidates {
		// Nearest rank, 0-based; the epsilon keeps n·99.9/100 from
		// rounding up past an exact integer.
		rank := int(math.Ceil(float64(len(s))*p/100-1e-9)) - 1
		if rank >= 0 && len(s)-1-rank >= minBeyond {
			return p, s[rank], true
		}
	}
	return 0, 0, false
}

// interval is a half-open time interval in any unit.
type interval struct{ start, end float64 }

// selfTime is the duration of parent minus the part of it covered by the
// union of the child intervals; children may overlap each other and
// stick out of the parent.
func selfTime(parent interval, children []interval) float64 {
	cs := append([]interval(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := 0.0, parent.start
	for _, c := range cs {
		lo, hi := max(c.start, reach), min(c.end, parent.end)
		if hi > lo {
			covered += hi - lo
		}
		reach = max(reach, min(c.end, parent.end))
	}
	return parent.end - parent.start - covered
}
