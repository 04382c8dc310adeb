package main

import "testing"

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileIsNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.50, 50},
		{100, 0.25, 25},
		{101, 0.50, 51},
		{2000, 0.99, 1980},
		{1, 0.50, 1},
	} {
		got, _ := percentile(ascending(tc.n), tc.q)
		if got != tc.want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.q*100, tc.n, got, tc.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{0, 0.50, false},
		{19, 0.50, false}, // rank 10: nine samples beyond
		{21, 0.50, true},  // rank 11: ten beyond
		{100, 0.99, false},
		{900, 0.99, false},
		{1000, 0.99, true},
	} {
		if _, ok := percentile(ascending(tc.n), tc.q); ok != tc.ok {
			t.Errorf("p%g of %d samples reportable = %v, want %v", tc.q*100, tc.n, ok, tc.ok)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Fatalf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 9}); got != 4 {
		t.Fatalf("median = %g, want 4", got)
	}
}
