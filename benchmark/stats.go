package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted, by the
// nearest-rank rule on an exact sort: the smallest value with at least p%
// of the samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is ceil(p% of n), computed so that 99.9% of 10000 is 9990 and
// not 9991 by a rounding error in the product.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// samplesBeyond is how many samples lie strictly above the p-th percentile's
// rank in a sample of n.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// highestSupported returns the highest of the candidate percentiles that
// still has at least ten samples beyond it in a sample of n, or 50 when
// none has: a tail percentile resting on fewer samples is one slow query,
// not a property of the system.
func highestSupported(n int, candidates ...float64) float64 {
	best := 50.0
	for _, p := range candidates {
		if p > best && samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; 0 for an empty one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// poissonSchedule returns the n arrival offsets of a Poisson process of the
// given rate (1/s) conditioned on n arrivals falling in n/rate seconds:
// sorted uniform draws, from seed alone. Every seed's schedule then spans
// the same time, so the offered load is the rate exactly and not the rate
// give or take the luck of the draw (4% for 600 arrivals).
func poissonSchedule(n int, rate float64, seed int64) []time.Duration {
	rng := newRand(seed)
	span := float64(n) / rate * float64(time.Second)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * span)
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	return due
}
