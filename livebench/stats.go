package main

import (
	"math"
	"slices"
	"time"
)

// failedNS marks a failed operation in a latency sample set. It sorts
// above every measured latency, so a failure counts as beyond any
// latency limit.
const failedNS = math.MaxUint32

// failedUS is what a percentile reports when it lands on a failed
// operation: 1000 s, beyond every deadline the benchmark sets.
const failedUS = 1e9

// toNS converts a measured duration into a latency sample, saturating
// just below failedNS.
func toNS(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d >= failedNS {
		return failedNS - 1
	}
	return uint32(d)
}

// percentileUS returns the nearest-rank q-quantile of sorted latency
// samples in microseconds.
func percentileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	if sorted[i] == failedNS {
		return failedUS
	}
	return float64(sorted[i]) / 1e3
}

// quantileF returns the nearest-rank q-quantile of float samples,
// sorting them in place.
func quantileF(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

// median returns the median of v (the mean of the middle two for an
// even count) without reordering v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
