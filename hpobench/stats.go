package main

import (
	"math"
	"sort"
	"time"
)

// candidatePercentiles are the tail percentiles a timing may be reported
// at, lowest first.
var candidatePercentiles = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, and false when even the median does
// not (n < 20): the tail then rests on too few samples to report.
func tailPercentile(n int) (float64, bool) {
	best, ok := candidatePercentiles[0], false
	for _, p := range candidatePercentiles {
		// n·(100−p)/100 ≥ 10, in tenths of a percent to stay exact.
		if n*int(math.Round((100-p)*10)) >= 10000 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
