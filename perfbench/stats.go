package main

import (
	"math"
	"sort"
	"time"

	"dmvcc/internal/types"
)

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank position of percentile q among n
// samples: the q-th percentile is the rank-th smallest sample.
func rank(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank q-th percentile of xs (0 < q <= 1),
// or NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sortedCopy(xs)[rank(len(xs), q)-1]
}

// tailGrid lists the percentiles a tail is reported at, highest first.
var tailGrid = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie above a reported tail percentile,
// so that the figure rests on more than a handful of outliers.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailGrid that leaves at
// least minBeyond of n samples above it. With fewer than 2*minBeyond
// samples none qualifies; it then returns the median and ok=false.
func tailPercentile(n int) (q float64, ok bool) {
	for _, q := range tailGrid {
		if n-rank(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0.50, false
}

// countFailed counts the blocks of got that do not match want: a root that
// differs, or a block missing from either side.
func countFailed(got, want []types.Hash) int {
	n := len(got)
	if len(want) > n {
		n = len(want)
	}
	failed := 0
	for i := 0; i < n; i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			failed++
		}
	}
	return failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
