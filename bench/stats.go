package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the rule
// Python's statistics.quantiles(xs, n=4) uses (the benchmark driver's
// yardstick): the value at position (n+1)·k/4 of the sorted sample,
// interpolated linearly. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(len(s)+1) * float64(k) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread says how far the segment values behind one reported number
// disagree, as a share of their median: the distance between their
// quartiles, or (max − min) when there are too few values for
// quartiles. 0 when the median is 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) >= 4 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / m
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

// tailPercentile picks the highest of p99, p95, p90 that has at least
// ten samples beyond it in a sample of n, falling back to the maximum
// (q = 1) for samples too small for any of them.
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 1
}

// segmentStat is one reported number: the median of its per-segment
// values, their spread, and how many raw samples fed them.
type segmentStat struct {
	Value   float64   `json:"value"`
	Spread  float64   `json:"spread"`
	Samples int       `json:"samples"`
	Parts   []float64 `json:"segments,omitempty"`
}

func newSegmentStat(parts []float64, samples int) segmentStat {
	return segmentStat{Value: median(parts), Spread: spread(parts), Samples: samples, Parts: parts}
}
