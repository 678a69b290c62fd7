package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 5}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 0.5, 9, 4, 4, 7.25, 1}, 1, 4, 7.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if c.xs != nil && median(c.xs) != c.q2 {
			t.Errorf("median(%v) = %v; want %v", c.xs, median(c.xs), c.q2)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v; want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v; want 0", got)
	}
}

func TestMedianOfMedians(t *testing.T) {
	cases := []struct {
		groups [][]float64
		want   float64
	}{
		{[][]float64{{1, 2, 9}, {4, 5}}, 3.25},     // medians 2 and 4.5
		{[][]float64{{1}, {7, 7, 7, 100}, {3}}, 3}, // medians 1, 7, 3
		{[][]float64{{2, 4}, nil}, 3},              // an empty group is left out
		{nil, 0},
	}
	for _, c := range cases {
		if got := medianOfMedians(c.groups); got != c.want {
			t.Errorf("medianOfMedians(%v) = %v; want %v", c.groups, got, c.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		p, v   float64
		wantOK bool
	}{
		{10000, 99.9, 9990, true}, // 10 samples above rank 9990
		{9999, 99, 9900, true},    // p99.9 has only 9 beyond
		{1000, 99, 990, true},
		{999, 90, 900, true}, // p99 has 9 beyond
		{100, 90, 90, true},
		{99, 0, 0, false},
		{0, 0, 0, false},
	}
	for _, c := range cases {
		p, v, ok := tail(seq(c.n), 99.9, 99, 90)
		if ok != c.wantOK || p != c.p || v != c.v {
			t.Errorf("tail(1..%d) = p%v %v %v; want p%v %v %v", c.n, p, v, ok, c.p, c.v, c.wantOK)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"unsorted", []interval{{50, 70}, {10, 20}}, 70},
		{"sticking out", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{200, 300}}, 100},
		{"covering", []interval{{-5, 105}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v; want %v", c.name, got, c.want)
		}
	}
}
