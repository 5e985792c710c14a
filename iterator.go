package roadskyline

import (
	"context"
	"time"

	"roadskyline/internal/core"
	"roadskyline/internal/obs"
)

// SkylineIterator streams skyline points progressively using the LBC
// algorithm: results arrive nearest-to-the-source first (or spread across
// all query points when alternate is set), so interactive applications can
// render the first answers while the rest are still being determined.
//
// The iterator owns the engine's storage counters until it is exhausted or
// closed; do not interleave other queries on the same engine while it is
// live. Call Close when abandoning an iteration before exhaustion so the
// engine's metrics and trace finalize and the searcher state is released;
// a fully drained iterator finalizes itself. From Pool.SkylineIter, the
// iterator holds its worker until then. An iterator is not safe for
// concurrent use; hand it to one consumer.
type SkylineIterator struct {
	eng   *Engine
	it    *core.LBCIterator
	q     Query
	began time.Time
	// done receives the query's record at its first terminal event and is
	// cleared then: the flight recorder's Record for a bare engine, the
	// worker's release and Pool.finish under a Pool.
	done func(obs.FlightRecord)
}

// SkylineIterContext starts a progressive LBC skyline query under a
// context: once it is cancelled, Next fails with ctx.Err(). The query's
// Algorithm field is ignored (the iterator is always LBC); Source and
// Alternate select the nearest-neighbor source(s).
func (e *Engine) SkylineIterContext(ctx context.Context, q Query) (*SkylineIterator, error) {
	return e.iter(ctx, q, time.Time{}, e.flight.Record)
}

// iter starts the iteration; done receives its record at the first
// terminal event. A query that fails to start is finished already: done
// receives its record before iter returns.
func (e *Engine) iter(ctx context.Context, q Query, began time.Time, done func(obs.FlightRecord)) (*SkylineIterator, error) {
	q.Algorithm = LBCAlg
	cq, opts, began := e.begin(&q, began)
	it, err := core.NewLBCIterator(ctx, e.env, cq, opts)
	if err != nil {
		done(finalize(e.inflight, q, core.Metrics{Total: since(began)}, began, err, false))
		return nil, err
	}
	return &SkylineIterator{eng: e, it: it, q: q, began: began, done: done}, nil
}

// finish ends the iteration at its first terminal event (exhaustion,
// error, or Close): the core iterator finalizes — metrics freeze, a
// cleanly finished iteration feeds the distance cache, searcher state is
// released — and the query becomes its record, exactly once.
func (s *SkylineIterator) finish(err error, abandoned bool) {
	done := s.done
	if done == nil {
		return
	}
	s.done = nil
	s.it.Close()
	done(finalize(s.eng.inflight, s.q, s.it.Metrics(), s.began, err, abandoned))
}

// TraceID returns the iteration's causal trace ID when it runs with
// Query.Trace, otherwise the empty string.
func (s *SkylineIterator) TraceID() string { return s.q.trace.ID().String() }

// Next returns the next skyline point; ok is false when the skyline is
// exhausted or after Close. A context or query error ends the iteration
// and is sticky: every later Next returns it again, so a caller that only
// checks the final Next still sees it.
func (s *SkylineIterator) Next() (SkylinePoint, bool, error) {
	p, ok, err := s.it.Next()
	if err != nil || !ok {
		// "served" on clean exhaustion, error/cancelled otherwise.
		s.finish(err, false)
		return SkylinePoint{}, ok, err
	}
	return SkylinePoint{
		Object:    s.eng.objs[p.Object.ID],
		Distances: p.Dists,
		Vector:    p.Vec,
	}, true, nil
}

// Close finalizes an iteration abandoned before exhaustion: the query's
// metrics and trace close where the stream stopped, searcher state is
// released, and the next query on the engine starts from clean counters.
// An abandoned iteration is recorded with the flight recorder under the
// "abandoned" outcome. Close is idempotent, and unnecessary (but
// harmless) after Next has reported exhaustion. After Close, Next reports
// exhaustion and Stats returns the frozen counters.
func (s *SkylineIterator) Close() { s.finish(nil, true) }

// Stats returns the query's cost counters: frozen finals once the iterator
// is exhausted or closed, otherwise a live snapshot of the work so far.
func (s *SkylineIterator) Stats() Stats {
	return statsFromMetrics(s.it.Metrics())
}
