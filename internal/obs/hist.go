package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Every latency this package keeps — the pool's queue wait, the flight
// recorder's per-query durations and the rolling window's per-second wall
// times — lands in one fixed log-linear layout, HDR-histogram style: each
// power-of-two octave of the nanosecond range splits into latSubCount
// linear sub-buckets, so the relative quantile error is bounded by
// 1/latSubCount (~3%) with a few hundred fixed counters and no
// per-observation allocation. The range runs from about 1 µs (anything
// faster lands in one underflow bucket) to about 18 minutes (anything
// slower clamps into the top bucket) — wider than any plausible query
// latency. Buckets are upper-inclusive, as Prometheus's le is: bucket i
// holds the durations in (latUpper(i-1), latUpper(i)].
const (
	latMinExp   = 10 // 2^10 ns ≈ 1 µs: upper edge of the underflow bucket
	latMaxExp   = 39 // octaves above (2^39, 2^40] ns clamp to the top
	latSubBits  = 5
	latSubCount = 1 << latSubBits // sub-buckets per octave

	// NumLatBuckets is the number of counters a log-linear latency
	// histogram holds: one underflow bucket plus latSubCount per octave.
	NumLatBuckets = 1 + (latMaxExp-latMinExp+1)*latSubCount

	// expoMaxExp is the last octave edge a Snapshot reports as a bound:
	// 2^34 ns ≈ 17.2 s. Slower observations show only in the +Inf bucket.
	expoMaxExp = 34
)

// latIndex maps a duration to its bucket. Index 0 is the underflow bucket
// (no slower than 2^latMinExp ns); the top bucket absorbs overflow.
// Indexing ns-1 makes every bucket's upper edge belong to that bucket.
func latIndex(d time.Duration) int {
	if d <= 1<<latMinExp {
		return 0
	}
	ns := uint64(d) - 1
	e := bits.Len64(ns) - 1
	if e > latMaxExp {
		return NumLatBuckets - 1
	}
	sub := int(ns>>(uint(e)-latSubBits)) - latSubCount
	return 1 + (e-latMinExp)*latSubCount + sub
}

// latUpper returns bucket i's upper edge, the value quantile estimation
// reports: the true order statistic is never above it and at most one
// sub-bucket width (1/latSubCount relative) below.
func latUpper(i int) time.Duration {
	if i <= 0 {
		return 1 << latMinExp
	}
	i--
	e := uint(latMinExp + i/latSubCount)
	sub := uint64(i%latSubCount) + 1
	return time.Duration(uint64(1)<<e + sub<<(e-latSubBits))
}

// latQuantile estimates the q-quantile (q in [0, 1]) from a bucket-count
// array aligned with latIndex, holding total observations. It returns the
// upper edge of the bucket containing the order statistic, zero when the
// histogram is empty.
func latQuantile(counts []uint64, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return latUpper(i)
		}
	}
	return latUpper(len(counts) - 1)
}

// Histogram is a duration histogram in the log-linear layout, safe for
// concurrent observation: two atomic adds per Observe, no locks. The zero
// value is ready to use. The observation count is the sum of the bucket
// counters, so a snapshot's +Inf bucket always equals its Count.
type Histogram struct {
	counts [NumLatBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[latIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// reset zeroes the histogram for reuse.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// addTo adds the histogram's bucket counts into counts and returns its
// observation count and sum.
func (h *Histogram) addTo(counts *[NumLatBuckets]uint64) (n uint64, sum time.Duration) {
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] += c
		n += c
	}
	return n, time.Duration(h.sum.Load())
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets are
// cumulative counts aligned with Bounds, the octave edges 2^10 ns ..
// 2^34 ns: Buckets[i] counts the observations no longer than Bounds[i]
// (Prometheus's le), exactly, since every bound is a bucket edge of the
// layout. Count includes the observations above the last bound, so
// Count >= Buckets[len-1].
type HistogramSnapshot struct {
	Bounds  []time.Duration
	Buckets []uint64
	Count   uint64
	Sum     time.Duration
}

// Snapshot copies the histogram. Concurrent Observes may straddle the
// copy; the buckets and Count come from one pass over the counters, so
// they agree with each other, and Sum is off by at most the in-flight
// observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [NumLatBuckets]uint64
	n, sum := h.addTo(&counts)
	s := HistogramSnapshot{
		Bounds:  make([]time.Duration, 0, expoMaxExp-latMinExp+1),
		Buckets: make([]uint64, 0, expoMaxExp-latMinExp+1),
		Count:   n,
		Sum:     sum,
	}
	var cum uint64
	i := 0
	for e := latMinExp; e <= expoMaxExp; e++ {
		edge := time.Duration(1) << e
		for ; i <= latIndex(edge); i++ {
			cum += counts[i]
		}
		s.Bounds = append(s.Bounds, edge)
		s.Buckets = append(s.Buckets, cum)
	}
	return s
}
