package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile, so that a tail always rests on at least this many
// observations.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is a latency tail: the value at integer percentile Pct of N
// samples.
type tailStat struct {
	Pct   int
	Value float64
	N     int
}

// tail returns the highest integer percentile of xs with at least
// tailBeyond samples above it, using the nearest-rank definition: the p-th
// percentile is the sample at rank ceil(p·n/100). ok is false when there
// are too few samples for any percentile to qualify (n <= tailBeyond).
func tail(xs []float64) (t tailStat, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tailStat{N: n}, false
	}
	s := sorted(xs)
	p := 100 * (n - tailBeyond) / n // floor, so rank <= n - tailBeyond
	rank := (p*n + 99) / 100        // ceil(p·n/100)
	if rank < 1 {
		rank = 1
	}
	return tailStat{Pct: p, Value: s[rank-1], N: n}, true
}
