package roadskyline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roadskyline/internal/core"
	"roadskyline/internal/obs"
)

// ErrPoolClosed is returned by pool queries after Close.
var ErrPoolClosed = errors.New("roadskyline: pool closed")

// ErrPoolSaturated is returned when a query arrives while every worker is
// busy and the admission queue is full. Callers should treat it as
// backpressure: retry later or shed the request.
var ErrPoolSaturated = errors.New("roadskyline: pool saturated")

// errOutcomes is which errors end a submission in which outcome
// (obs.Classify reads it, in finalize); any other error is a query-level
// error.
var errOutcomes = []obs.ErrOutcome{
	{Err: ErrPoolSaturated, Outcome: obs.OutcomeSaturated},
	{Err: ErrPoolClosed, Outcome: obs.OutcomeClosed},
	{Err: context.Canceled, Outcome: obs.OutcomeCancelled},
	{Err: context.DeadlineExceeded, Outcome: obs.OutcomeCancelled},
}

// PoolConfig tunes a Pool.
type PoolConfig struct {
	// Workers is the number of engine clones serving queries concurrently.
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds how many queries may wait for a worker beyond the
	// ones already running; arrivals past Workers+QueueDepth fail fast with
	// ErrPoolSaturated. Defaults to 4x Workers.
	QueueDepth int
	// Window enables the rolling load window: per-second buckets of
	// throughput, latency quantiles, outcome rates and cache hit rates,
	// composed into 1s/10s/60s views in PoolMetrics().Load and the
	// /debug/load endpoint. Off by default; when off, PoolMetrics().Load
	// is nil.
	Window bool
	// RuntimeSample enables periodic Go runtime sampling (heap, GC pauses,
	// goroutines, scheduler latency) at the given interval on a dedicated
	// goroutine, surfaced via PoolMetrics().Runtime. Zero disables it.
	RuntimeSample time.Duration
}

// Pool serves skyline queries concurrently from a fixed set of engine
// clones behind a bounded admission queue. The clones share the immutable
// indexes and page files of the source engine; each owns private buffer
// pools and cost counters, so concurrent queries are race-free and their
// Stats are per-query exact.
//
// All methods are safe for concurrent use. The source engine passed to
// NewPool is not retained and stays free for serial use.
type Pool struct {
	workers chan *poolWorker // idle clones; capacity = Workers
	queue   chan struct{}    // admission tokens; capacity = Workers+QueueDepth
	size    int
	closed  chan struct{}
	once    sync.Once

	all      []*poolWorker // every worker, immutable after NewPool; for snapshots
	met      poolCounters
	flight   *obs.FlightRecorder // shared with every clone; nil when disabled
	inflight *obs.Inflight       // live traced queries, shared with every clone
	window   *obs.Window         // rolling load window; nil when disabled
	sampler  *obs.RuntimeSampler // periodic runtime sampling; nil when disabled
}

// poolWorker pairs an engine clone with its lifetime buffer statistics.
// Only the goroutine that checked the worker out runs queries on it, but
// PoolMetrics reads the counters while workers are checked out, hence
// atomics.
type poolWorker struct {
	eng     *Engine
	id      int
	queries atomic.Uint64
	gets    atomic.Int64
	misses  atomic.Int64
}

// poolCounters is the pool's runtime instrumentation: submission outcome
// counters, occupancy gauges and the queue-wait histogram. All lock-free;
// queries pay a handful of atomic adds each.
type poolCounters struct {
	submitted atomic.Uint64
	served    atomic.Uint64
	saturated atomic.Uint64
	cancelled atomic.Uint64
	closed    atomic.Uint64
	inFlight  atomic.Int64
	waiting   atomic.Int64
	queueWait obs.Histogram
}

// snapshot reads the submission counters consistently enough for the
// invariant Submitted ≥ Served+Saturated+Cancelled+Closed to hold at
// every concurrent scrape. Each submission increments submitted before
// any outcome counter, and Go atomics are sequentially consistent, so
// loading the outcomes FIRST and submitted LAST can only undercount the
// outcomes relative to the submitted value: the naive opposite order let
// a scrape see an outcome whose submission it had missed, making the
// "in flight" difference go negative.
func (c *poolCounters) snapshot() (submitted, served, saturated, cancelled, closed uint64) {
	served = c.served.Load()
	saturated = c.saturated.Load()
	cancelled = c.cancelled.Load()
	closed = c.closed.Load()
	submitted = c.submitted.Load()
	return
}

// NewPool builds a pool of cfg.Workers clones of e.
func NewPool(e *Engine, cfg PoolConfig) (*Pool, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("roadskyline: negative QueueDepth %d", cfg.QueueDepth)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	p := &Pool{
		workers:  make(chan *poolWorker, cfg.Workers),
		queue:    make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		size:     cfg.Workers,
		closed:   make(chan struct{}),
		all:      make([]*poolWorker, cfg.Workers),
		flight:   e.flight,
		inflight: e.inflight,
	}
	if cfg.Window {
		p.window = obs.NewWindow()
	}
	p.sampler = obs.NewRuntimeSampler(cfg.RuntimeSample)
	p.sampler.Start()
	for i := 0; i < cfg.Workers; i++ {
		w := &poolWorker{eng: e.Clone(), id: i}
		p.all[i] = w
		p.workers <- w
	}
	return p, nil
}

// Workers returns the number of engine clones in the pool.
func (p *Pool) Workers() int { return p.size }

// FlightRecords returns the flight recorder's retained per-query records,
// newest first (see Engine.FlightRecords). The recorder is shared by
// every worker and by the source engine; nil when the source engine was
// built without one.
func (p *Pool) FlightRecords() []FlightRecord { return p.flight.Records() }

// TraceRecord looks a retained flight record up by its causal trace ID
// (see Engine.TraceRecord).
func (p *Pool) TraceRecord(traceID string) (FlightRecord, bool) { return p.flight.Find(traceID) }

// InflightQueries snapshots the traced queries currently queued or
// running across the pool's workers, in admission order (see
// Engine.InflightQueries).
func (p *Pool) InflightQueries() []InflightQuery { return p.inflight.Snapshot() }

// admit opens a submission and waits for its worker: it is counted and
// stamped, and when Query.Trace is set (and no trace is attached yet) its
// causal trace opens here with the queued role, so the in-flight view
// shows the query before a worker picks it up and the queue wait is
// spanned. The engine adopts the trace through the unexported field.
// Every submission goes through the bounded admission queue, failing fast
// with ErrPoolSaturated when it is full.
func (p *Pool) admit(ctx context.Context, q *Query) (w *poolWorker, admitted time.Time, err error) {
	p.met.submitted.Add(1)
	if q.trace == nil && q.Trace {
		q.trace = p.inflight.Begin(q.Algorithm.String(), len(q.Points))
		q.trace.SetRole(obs.RoleQueued)
	}
	admitted = time.Now()
	w, err = p.acquire(ctx, admitted)
	q.trace.SpanSince(obs.SpanQueueWait, admitted)
	return w, admitted, err
}

// finish hands a finished submission's record to every consumer: the
// outcome counters (keeping submitted = served + saturated + cancelled +
// closed once the pool is quiescent; query-level errors and abandoned
// iterators count as served, a worker processed the request), the
// lifetime buffer totals of the worker that answered it (w is nil when
// none did), the flight recorder and the rolling window. Every submission
// path ends here, exactly once.
func (p *Pool) finish(w *poolWorker, rec obs.FlightRecord) {
	switch rec.Outcome {
	case obs.OutcomeSaturated:
		p.met.saturated.Add(1)
	case obs.OutcomeClosed:
		p.met.closed.Add(1)
	case obs.OutcomeCancelled:
		p.met.cancelled.Add(1)
	default:
		p.met.served.Add(1)
	}
	if w != nil && rec.Err == "" { // answered with a result: served or abandoned
		w.queries.Add(1)
		w.gets.Add(rec.NetworkGets)
		w.misses.Add(rec.NetworkPages)
	}
	p.flight.Record(rec)
	p.window.Observe(&rec)
}

// Close shuts the pool: queries already running finish normally, every
// waiter and later call fails with ErrPoolClosed. Close is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.closed)
		p.sampler.Stop()
	})
}

// acquire takes an admission token (failing fast with ErrPoolSaturated
// when the queue is full) and then waits for an idle worker. A submission
// that gets no worker gives its token back; one that does keeps it until
// release.
func (p *Pool) acquire(ctx context.Context, admitted time.Time) (w *poolWorker, err error) {
	select {
	case p.queue <- struct{}{}:
	default:
		select {
		case <-p.closed:
			return nil, ErrPoolClosed
		default:
		}
		return nil, ErrPoolSaturated
	}
	defer func() {
		if err != nil {
			<-p.queue
		}
	}()
	if err = ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-p.closed:
		return nil, ErrPoolClosed
	default:
	}
	p.met.waiting.Add(1)
	defer p.met.waiting.Add(-1)
	select {
	case w := <-p.workers:
		p.met.queueWait.Observe(time.Since(admitted))
		p.met.inFlight.Add(1)
		return w, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.closed:
		return nil, ErrPoolClosed
	}
}

func (p *Pool) release(w *poolWorker) {
	p.met.inFlight.Add(-1)
	p.workers <- w
	<-p.queue
}

// Skyline answers the query on an idle worker. It blocks until a worker is
// free, the context is done, or the pool closes; when every worker is busy
// and the admission queue is full it fails fast with ErrPoolSaturated.
// Cancellation both abandons the wait and aborts a running expansion.
func (p *Pool) Skyline(ctx context.Context, q Query) (*Result, error) {
	w, admitted, err := p.admit(ctx, &q)
	var res *Result
	var rec obs.FlightRecord
	if err != nil {
		rec = finalize(p.inflight, q, core.Metrics{}, admitted, err, false)
	} else {
		res, rec, err = w.eng.run(ctx, q, admitted)
		p.release(w)
	}
	p.finish(w, rec)
	return res, err
}

// SkylineIter starts a progressive LBC query on an idle worker. The worker
// stays checked out until the iterator is exhausted, fails, or is closed;
// always call Close (it is idempotent and exhaustion triggers it
// automatically) or the worker leaks. Admission follows the same rules as
// Skyline, including ErrPoolSaturated.
func (p *Pool) SkylineIter(ctx context.Context, q Query) (*SkylineIterator, error) {
	q.Algorithm = LBCAlg
	w, admitted, err := p.admit(ctx, &q)
	if err != nil {
		p.finish(w, finalize(p.inflight, q, core.Metrics{}, admitted, err, false))
		return nil, err
	}
	return w.eng.iter(ctx, q, admitted, func(rec obs.FlightRecord) {
		p.release(w)
		p.finish(w, rec)
	})
}
