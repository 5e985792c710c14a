package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Rolling-window geometry. Views aggregate the last N *complete* seconds
// (the in-progress second is still filling and would read as an
// artificially low rate), so the ring must hold the longest view plus the
// second being written; 64 slots cover the 60-second view with slack.
const (
	windowBuckets = 64
	// WindowMaxSeconds is the longest view a Window can serve.
	WindowMaxSeconds = windowBuckets - 2
)

// WindowViews are the view widths PoolMetrics exposes: instantaneous,
// smoothed, and the a-minute-at-a-glance trend.
var WindowViews = [3]int{1, 10, 60}

// winBucket accumulates one wall-clock second of traffic. epoch is the
// unix second the counters belong to, -1 while a writer is clearing the
// bucket for reuse.
type winBucket struct {
	epoch atomic.Int64
	// Outcome buckets; served covers OutcomeServed and OutcomeAbandoned.
	served, errors, cancelled, saturated, closed atomic.Uint64

	lat      Histogram // wall times of the submissions a worker completed
	dcHits   atomic.Uint64
	dcMisses atomic.Uint64
	wfLeads  atomic.Uint64
	wfShares atomic.Uint64
}

func (b *winBucket) reset() {
	b.served.Store(0)
	b.errors.Store(0)
	b.cancelled.Store(0)
	b.saturated.Store(0)
	b.closed.Store(0)
	b.lat.reset()
	b.dcHits.Store(0)
	b.dcMisses.Store(0)
	b.wfLeads.Store(0)
	b.wfShares.Store(0)
}

// Window is a rolling aggregator of serving-layer telemetry: a ring of
// per-second buckets composed on demand into sliding views (1s/10s/60s)
// of throughput, latency quantiles, outcome rates and cache hit rates.
// Writers pay a handful of atomic adds per finished query and never
// allocate; readers walk the ring lock-free. A nil *Window is the
// disabled state: every method is a cheap no-op, so callers observe
// unconditionally.
//
// Buckets rotate lazily: the writer that first touches a second whose
// ring slot still holds data from windowBuckets seconds ago clears the
// slot (briefly marking it epoch -1, which readers and concurrent writers
// treat as not-yet-available). Idle seconds leave stale buckets in place;
// views skip any bucket whose epoch falls outside the requested range, so
// gaps longer than the ring need no special handling.
type Window struct {
	now     func() int64 // unix seconds; swappable for tests
	buckets [windowBuckets]winBucket
}

// NewWindow builds an empty rolling window.
func NewWindow() *Window {
	return &Window{now: func() int64 { return time.Now().Unix() }}
}

// bucketFor returns the live bucket for the given second, rotating the
// ring slot if it still holds an older second.
func (w *Window) bucketFor(sec int64) *winBucket {
	b := &w.buckets[sec%windowBuckets]
	for {
		e := b.epoch.Load()
		if e == sec {
			return b
		}
		if e == -1 {
			// Another writer is clearing this slot; wait it out.
			runtime.Gosched()
			continue
		}
		if b.epoch.CompareAndSwap(e, -1) {
			b.reset()
			b.epoch.Store(sec)
			return b
		}
	}
}

// Observe folds one finished submission's record into the current second:
// the outcome always, the wall-time latency and the cache/wavefront
// counters only for submissions a worker completed (served, abandoned and
// error) — a microsecond admission rejection would otherwise drag the
// latency quantiles to zero. Safe for concurrent use; a no-op on a nil
// window.
func (w *Window) Observe(rec *FlightRecord) {
	if w == nil {
		return
	}
	b := w.bucketFor(w.now())
	switch rec.Outcome {
	case OutcomeCancelled:
		b.cancelled.Add(1)
		return
	case OutcomeSaturated:
		b.saturated.Add(1)
		return
	case OutcomeClosed:
		b.closed.Add(1)
		return
	case OutcomeError:
		b.errors.Add(1)
	default:
		b.served.Add(1)
	}
	b.lat.Observe(rec.Wall)
	if rec.DistCacheHits > 0 {
		b.dcHits.Add(uint64(rec.DistCacheHits))
	}
	if rec.DistCacheMisses > 0 {
		b.dcMisses.Add(uint64(rec.DistCacheMisses))
	}
	if rec.WavefrontLeads > 0 {
		b.wfLeads.Add(uint64(rec.WavefrontLeads))
	}
	if rec.WavefrontShares > 0 {
		b.wfShares.Add(uint64(rec.WavefrontShares))
	}
}

// LoadStats is one sliding-window view of the rolling telemetry: totals
// over the last WindowSeconds complete seconds, the throughput they imply
// and the latency quantile estimates (upper bucket edges, ≤ ~3% above the
// true order statistic). Latency, cache and wavefront numbers cover only
// the submissions a worker completed (served + error); the outcome counts
// cover everything.
type LoadStats struct {
	// WindowSeconds is the view width; the view covers the WindowSeconds
	// complete seconds before the in-progress one.
	WindowSeconds int `json:"window_seconds"`
	// Total counts every submission that finished inside the view; TPS is
	// Total / WindowSeconds.
	Total uint64  `json:"total"`
	TPS   float64 `json:"tps"`
	// Outcome counts; Served + Errors + Cancelled + Saturated + Closed =
	// Total.
	Served    uint64 `json:"served"`
	Errors    uint64 `json:"errors"`
	Cancelled uint64 `json:"cancelled"`
	Saturated uint64 `json:"saturated"`
	Closed    uint64 `json:"closed"`
	// Latency quantiles over the completed submissions, as wall time from
	// admission to completion (including queue wait). LatencyCount is the
	// number of observations behind them (= Served + Errors).
	LatencyCount uint64        `json:"latency_count"`
	MeanLatency  time.Duration `json:"mean_latency_ns"`
	P50          time.Duration `json:"p50_ns"`
	P90          time.Duration `json:"p90_ns"`
	P99          time.Duration `json:"p99_ns"`
	P999         time.Duration `json:"p999_ns"`
	// Distance-cache lookups performed by the completed queries and the
	// hit rate among them (0 when there were none).
	DistCacheHits    uint64  `json:"distcache_hits"`
	DistCacheMisses  uint64  `json:"distcache_misses"`
	DistCacheHitRate float64 `json:"distcache_hit_rate"`
	// Single-flight wavefront outcomes of the completed queries and the
	// share rate among them (0 when there were none).
	WavefrontLeads     uint64  `json:"wavefront_leads"`
	WavefrontShares    uint64  `json:"wavefront_shares"`
	WavefrontShareRate float64 `json:"wavefront_share_rate"`
}

// View aggregates the last seconds complete seconds into a LoadStats.
// seconds is clamped to [1, WindowMaxSeconds]. On a nil window it returns
// the zero view (with WindowSeconds set), so disabled pools render as
// all-zero rather than panicking.
//
// Concurrent observations may land while the ring is walked; each bucket
// is individually consistent and the skew is bounded by the queries
// finishing during the walk, as with every other snapshot in this layer.
func (w *Window) View(seconds int) LoadStats {
	if seconds < 1 {
		seconds = 1
	}
	if seconds > WindowMaxSeconds {
		seconds = WindowMaxSeconds
	}
	s := LoadStats{WindowSeconds: seconds}
	if w == nil {
		return s
	}
	nowSec := w.now()
	lo, hi := nowSec-int64(seconds), nowSec-1
	var lat [NumLatBuckets]uint64
	var latSum time.Duration
	for i := range w.buckets {
		b := &w.buckets[i]
		e := b.epoch.Load()
		if e < lo || e > hi {
			continue
		}
		s.Served += b.served.Load()
		s.Errors += b.errors.Load()
		s.Cancelled += b.cancelled.Load()
		s.Saturated += b.saturated.Load()
		s.Closed += b.closed.Load()
		n, sum := b.lat.addTo(&lat)
		s.LatencyCount += n
		latSum += sum
		s.DistCacheHits += b.dcHits.Load()
		s.DistCacheMisses += b.dcMisses.Load()
		s.WavefrontLeads += b.wfLeads.Load()
		s.WavefrontShares += b.wfShares.Load()
	}
	s.Total = s.Served + s.Errors + s.Cancelled + s.Saturated + s.Closed
	s.TPS = float64(s.Total) / float64(seconds)
	if s.LatencyCount > 0 {
		s.MeanLatency = latSum / time.Duration(s.LatencyCount)
		s.P50 = latQuantile(lat[:], s.LatencyCount, 0.50)
		s.P90 = latQuantile(lat[:], s.LatencyCount, 0.90)
		s.P99 = latQuantile(lat[:], s.LatencyCount, 0.99)
		s.P999 = latQuantile(lat[:], s.LatencyCount, 0.999)
	}
	if lookups := s.DistCacheHits + s.DistCacheMisses; lookups > 0 {
		s.DistCacheHitRate = float64(s.DistCacheHits) / float64(lookups)
	}
	if joins := s.WavefrontLeads + s.WavefrontShares; joins > 0 {
		s.WavefrontShareRate = float64(s.WavefrontShares) / float64(joins)
	}
	return s
}

// Views returns the standard view trio (WindowViews: 1s, 10s, 60s). Nil
// on a nil window, so PoolMetrics renders the disabled state as absent
// rather than as zeros.
func (w *Window) Views() []LoadStats {
	if w == nil {
		return nil
	}
	out := make([]LoadStats, len(WindowViews))
	for i, sec := range WindowViews {
		out[i] = w.View(sec)
	}
	return out
}
