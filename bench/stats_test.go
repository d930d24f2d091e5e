package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		p       float64
		refused int // largest sample count that is refused
	}{
		{0.50, 19},
		{0.90, 99},
		{0.99, 999},
	} {
		if _, ok := percentile(seq(tc.refused), tc.p); ok {
			t.Errorf("p%g of %d samples reported; fewer than %d lie beyond it", tc.p*100, tc.refused, minBeyond)
		}
		n := tc.refused + 1
		v, ok := percentile(seq(n), tc.p)
		if !ok {
			t.Errorf("p%g of %d samples refused", tc.p*100, n)
			continue
		}
		// Samples are 1..n, so the nearest-rank value is n-minBeyond.
		if want := float64(n - minBeyond); v != want {
			t.Errorf("p%g of %d samples = %g, want %g", tc.p*100, n, v, want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}} {
		if got := quantile(xs, tc.p); got != tc.want {
			t.Errorf("quantile(%v) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %g, want the lower middle 2", got)
	}
}
