package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rankOf is the 1-based nearest-rank position of percentile q in n
// sorted samples.
func rankOf(q float64, n int) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000…2)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest candidate percentile with at least
// minBeyond samples beyond it, and false when n is too small for any.
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailCandidates {
		if n-rankOf(q, n) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile q of sorted values.
func percentile(sorted []float64, q float64) float64 {
	return sorted[rankOf(q, len(sorted))-1]
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
