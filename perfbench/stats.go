package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 over fewer than 1000 samples is a maximum in disguise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses, with an error, when fewer than minBeyond samples lie above
// the chosen rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// mean is the arithmetic mean of xs; 0 for none. A timed end-to-end
// metric is the mean over the blocks of its run (sim studies, set-ups,
// latency windows, capacity blocks), each of which is printed: on a
// shared host whose speed drifts over seconds to minutes, a mean over
// the whole run read steadier from run to run than a median or a
// quartile of the blocks.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
