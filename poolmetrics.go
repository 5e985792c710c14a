package roadskyline

import "roadskyline/internal/obs"

// WaitHistogram is a point-in-time copy of the pool's queue-wait
// histogram: cumulative bucket counts aligned with Bounds, the upper bounds
// (inclusive, Prometheus-style: Buckets[i] counts the waits no longer than
// Bounds[i]), plus the total observation count (including the +Inf
// overflow) and sum. Bounds are the powers of two from 2^10 ns (1.02 µs)
// to 2^34 ns (17.2 s), edges of the log-linear buckets every latency
// histogram keeps, so each cumulative count is exact.
type WaitHistogram = obs.HistogramSnapshot

// QueryDurations is one (algorithm, outcome) series of the per-query
// duration histograms the flight recorder maintains: Hist.Buckets are
// cumulative counts aligned with Hist.Bounds, as in WaitHistogram.
type QueryDurations = obs.DurationSnapshot

// LoadStats is one sliding-window view of the pool's rolling load
// telemetry: throughput, latency quantiles, outcome rates and cache hit
// rates over the last 1/10/60 complete seconds. See obs.LoadStats.
type LoadStats = obs.LoadStats

// RuntimeSample is one point-in-time reading of the Go runtime's own
// telemetry (heap, GC pauses, goroutines, scheduler latency). See
// obs.RuntimeSample.
type RuntimeSample = obs.RuntimeSample

// WorkerStats is one worker's lifetime buffer-pool traffic: logical
// network page requests and the faults among them, accumulated from the
// Stats of every query the worker completed.
type WorkerStats struct {
	// Worker is the worker's index, stable for the pool's lifetime.
	Worker int
	// Queries is the number of queries the worker completed with a result
	// (including progressive iterations).
	Queries uint64
	// BufferGets and BufferMisses total the workers' queries' NetworkGets
	// and NetworkPages.
	BufferGets   int64
	BufferMisses int64
}

// HitRate returns the worker's buffer hit rate in [0, 1]: the fraction of
// network page requests its buffer pools served without a fault. Zero
// when the worker has not requested any pages yet.
func (w WorkerStats) HitRate() float64 {
	if w.BufferGets == 0 {
		return 0
	}
	return 1 - float64(w.BufferMisses)/float64(w.BufferGets)
}

// PoolMetrics is a point-in-time snapshot of a pool's runtime metrics.
// The outcome counters classify every submission (Skyline, each batch
// query, SkylineIter) by how it ended, so once the pool is quiescent
//
//	Submitted = Served + Saturated + Cancelled + Closed
//
// holds exactly; while queries are in flight, Submitted may lead the sum
// by the queries not yet finished.
type PoolMetrics struct {
	// Workers is the pool's worker count (constant).
	Workers int
	// StorageBackend is how the pool's engines serve page files ("mem",
	// "file" or "mmap"); constant for the pool's lifetime and shared by
	// every worker (clones share the page files).
	StorageBackend string
	// InFlight is the number of queries holding a worker right now.
	InFlight int
	// Waiting is the number of submissions blocked waiting for an idle
	// worker right now.
	Waiting int
	// Submitted counts every query handed to the pool.
	Submitted uint64
	// Served counts submissions a worker completed — successfully or with
	// a query-level error (the worker still did the work).
	Served uint64
	// Saturated counts submissions rejected fast with ErrPoolSaturated.
	Saturated uint64
	// Cancelled counts submissions that ended with a context error,
	// whether while waiting for a worker or mid-query.
	Cancelled uint64
	// Closed counts submissions that failed with ErrPoolClosed.
	Closed uint64
	// QueueWait is the distribution of time from submission to worker
	// checkout, recorded for submissions that obtained a worker.
	QueueWait WaitHistogram
	// WorkerStats holds per-worker buffer traffic, indexed by worker.
	WorkerStats []WorkerStats
	// DistCache is the cross-query distance cache's global counters. The
	// cache is shared by every worker (like the landmark table), so these
	// are pool-wide totals, not per-worker; all zeros when the source
	// engine was built without a cache.
	DistCache DistCacheStats
	// Wavefront is the wavefront store's in-flight counters. The store is
	// shared by every worker, so these are pool-wide totals; all zeros
	// when the source engine was built without ShareWavefronts.
	Wavefront WavefrontStats
	// FlightSeen counts the queries the flight recorder observed over its
	// lifetime; FlightOutcomes splits them by outcome ("served", "error",
	// "cancelled", "abandoned", "saturated", "closed"). At quiescence the
	// recorder reconciles exactly with the submission counters above:
	// Served = served + error + abandoned, and Cancelled, Saturated and
	// Closed match their recorder outcomes one-to-one. Zero and nil when
	// the recorder is disabled.
	FlightSeen     uint64
	FlightOutcomes map[string]uint64
	// Durations are the per-(algorithm, outcome) query duration
	// histograms fed at query finalization, sorted by algorithm then
	// outcome. Nil when the flight recorder is disabled.
	Durations []QueryDurations
	// Load holds the rolling-window views (1s, 10s, 60s) of live
	// throughput, latency quantiles and outcome rates. Nil when the pool
	// was built without PoolConfig.Window.
	Load []LoadStats
	// Runtime is the latest Go runtime sample. Nil when the pool was built
	// without PoolConfig.RuntimeSample.
	Runtime *RuntimeSample
}

// PoolMetrics snapshots the pool's runtime metrics. It is safe to call
// concurrently with queries; the counters are individually consistent and
// the cross-counter skew is bounded by the queries in flight during the
// snapshot. The submission counters are read in an order that guarantees
// Submitted ≥ Served+Saturated+Cancelled+Closed at every scrape (see
// poolCounters.snapshot).
func (p *Pool) PoolMetrics() PoolMetrics {
	submitted, served, saturated, cancelled, closed := p.met.snapshot()
	m := PoolMetrics{
		Workers:        p.size,
		StorageBackend: p.all[0].eng.StorageBackend().String(),
		InFlight:       int(p.met.inFlight.Load()),
		Waiting:        int(p.met.waiting.Load()),
		Submitted:      submitted,
		Served:         served,
		Saturated:      saturated,
		Cancelled:      cancelled,
		Closed:         closed,
		QueueWait:      p.met.queueWait.Snapshot(),
		WorkerStats:    make([]WorkerStats, len(p.all)),
		// Any worker sees the shared store; the first is as
		// good as all.
		DistCache:      p.all[0].eng.DistCacheStats(),
		Wavefront:      p.all[0].eng.WavefrontStats(),
		FlightSeen:     p.flight.Seen(),
		FlightOutcomes: p.flight.OutcomeCounts(),
		Durations:      p.flight.Durations(),
		Load:           p.window.Views(),
	}
	if s, ok := p.sampler.Latest(); ok {
		m.Runtime = &s
	}
	for i, w := range p.all {
		m.WorkerStats[i] = WorkerStats{
			Worker:       w.id,
			Queries:      w.queries.Load(),
			BufferGets:   w.gets.Load(),
			BufferMisses: w.misses.Load(),
		}
	}
	return m
}
