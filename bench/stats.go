package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: with fewer, the number is set by a handful of outliers and
// does not repeat from run to run.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile (0 < p < 1) of xs, which
// it sorts in place; 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile of n samples. The
// epsilon keeps a p*n that is integral in exact arithmetic (0.9*100) from
// rounding up one rank.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// percentile is quantile for a reported timing: it refuses (ok false)
// when fewer than minBeyond samples lie beyond the rank, so p50 needs 20
// samples, p90 needs 100 and p99 needs 1000.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if p <= 0 || p >= 1 || len(xs)-rank(len(xs), p) < minBeyond {
		return 0, false
	}
	return quantile(xs, p), true
}

// median is the ledger's summary of a layer: taken over one sample per
// request or per distinct input, never fewer than the workload's bases.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
