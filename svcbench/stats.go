package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p90 over 20 samples is just the second-largest one.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// summary is a sample set's quartiles, kept in every run record.
type summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	P90 float64 `json:"p90"`
	// P90Valid reports whether p90 has minBeyond samples above it.
	P90Valid bool `json:"p90_valid"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	s.P25, _ = percentile(xs, 0.25)
	s.P50, _ = percentile(xs, 0.5)
	s.P75, _ = percentile(xs, 0.75)
	s.P90, s.P90Valid = percentile(xs, 0.9)
	return s
}

// median is the plain middle value, for set-up times and traced-run
// layer samples, which make no tail claim.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
