package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples a reported percentile must leave above it:
// a p99 over 200 samples is really the second-largest value, so the
// helper lowers the percentile until the tail holds at least this many.
const minTail = 10

// tailPercentile returns the nearest-rank p-th percentile of xs, capped
// at the highest percentile that leaves at least minTail samples above
// it, together with the percentile actually used. xs need not be sorted;
// it is not modified. An empty input yields (NaN, 0).
func tailPercentile(xs []float64, p float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k > n-1-minTail {
		k = n - 1 - minTail
	}
	if k < 0 {
		k = 0
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// maxSlices is how many consecutive slices of a window a percentile is
// computed over before taking the median: a burst of host contention
// then spoils one slice's value instead of the run's.
const maxSlices = 5

// sample is one latency observation and when (offset into the window)
// its op was due.
type sample struct {
	at time.Duration
	v  float64
}

// slicedPercentile cuts the window into as many equal slices (up to
// maxSlices) as leave each slice enough samples for a full p-th
// percentile with minTail samples beyond it, takes tailPercentile in
// each slice and returns the median over slices, the lowest percentile
// a slice actually used, and the slice count.
func slicedPercentile(xs []sample, window time.Duration, p float64) (value, used float64, slices int) {
	perSlice := int(math.Ceil(float64(minTail+1) / (1 - p/100)))
	slices = min(maxSlices, max(1, len(xs)/perSlice))
	parts := make([][]float64, slices)
	for _, x := range xs {
		i := int(int64(x.at) * int64(slices) / int64(window))
		i = min(max(i, 0), slices-1)
		parts[i] = append(parts[i], x.v)
	}
	var vals []float64
	used = 100
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		v, u := tailPercentile(part, p)
		vals = append(vals, v)
		used = min(used, u)
	}
	if len(vals) == 0 {
		return math.NaN(), 0, 0
	}
	return median(vals), used, slices
}
