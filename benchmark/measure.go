package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest element with at least p% of the sample at or below
// it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The small epsilon keeps 99.9% of 10000 at 9990 despite float rounding.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile's position.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// highestPercentile returns the highest of the candidate percentiles that
// still has at least minBeyond samples beyond it — the highest percentile
// a sample of n supports — or 0 when none does.
func highestPercentile(n, minBeyond int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if samplesBeyond(n, p) >= minBeyond && p > best {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two central values for even n); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1, the median and Q3 by the exclusive method — the
// same cut points as Python's statistics.quantiles(xs, n=4), which the
// acceptance driver uses. Fewer than two values return that value thrice.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spinScore runs a fixed arithmetic loop for d in three equal slices and
// returns the best slice's iterations per second: the machine's speed as
// this process sees it right now, past any wake-up ramp. Taken before and
// after a workload, the relative difference flags a run whose neighbours
// changed under it.
func spinScore(d time.Duration) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		best = max(best, spinSlice(d/3))
	}
	return best
}

func spinSlice(d time.Duration) float64 {
	start := time.Now()
	var iters int64
	x := uint64(88172645463325252)
	for {
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += 1 << 16
		if el := time.Since(start); el >= d {
			spinSink = x
			return float64(iters) / el.Seconds()
		}
	}
}

var spinSink uint64

// spinDrift is the relative difference between two spin scores.
func spinDrift(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return math.Abs(after-before) / before
}

// noisyDrift is the spin-score drift above which a run is flagged noisy.
const noisyDrift = 0.10
