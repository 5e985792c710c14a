// Package obs is the engine's observability layer: per-query records,
// causal traces and lock-free runtime metrics primitives.
//
// The paper's evaluation (Section 6) is entirely work accounting — page
// accesses, candidate counts, response time split into initial and total.
// The Metrics struct in internal/core reproduces the end-of-query totals;
// this package adds the *where*. The algorithms move through named phases
// (CE's filtering vs. refinement, EDC's Euclidean-skyline / window-query /
// A*-verification stages, LBC's NN-stream pulls and per-candidate
// dominance probes); each phase entry becomes one PhaseStat row of the
// query's breakdown and, when the query carries a Trace, one timestamped
// Span. Every finished query becomes one FlightRecord, which the flight
// recorder, the pool's counters, the rolling Window and a query's Tracer
// all consume.
//
// All of it is opt-in: a query without a Trace, a Tracer, phase collection
// or a flight recorder costs one pointer check per phase boundary and
// nothing per settled node, and none of it ever changes results or the
// work counters.
package obs

import "time"

// Phase identifies one instrumented stage of a query algorithm. The
// string values are stable identifiers used in logs, metrics and the
// phase breakdown; they are namespaced by algorithm.
type Phase string

const (
	// PhaseCEFilter is CE's filtering phase: round-robin Dijkstra
	// expansion until the candidate set is closed (no unseen object can
	// be a skyline point).
	PhaseCEFilter Phase = "ce.filter"
	// PhaseCERefine is CE's refinement phase: completing the candidates'
	// distance vectors and pruning dominated ones.
	PhaseCERefine Phase = "ce.refine"
	// PhaseEDCSeed is EDC's Euclidean-skyline stage: pulling the next
	// seed from the best-first Euclidean skyline stream.
	PhaseEDCSeed Phase = "edc.euclid_seed"
	// PhaseEDCWindow is EDC's window-query stage: the R-tree range scan
	// under a seed's shifted vector that admits new candidates.
	PhaseEDCWindow Phase = "edc.window"
	// PhaseEDCVerify is EDC's A*-verification stage: computing exact
	// network distance vectors for seeds and window candidates.
	PhaseEDCVerify Phase = "edc.verify"
	// PhaseLBCNN is LBC's nearest-neighbor stage: pulling the next
	// network NN from a source's IER stream (Euclidean heads confirmed
	// by A* distances).
	PhaseLBCNN Phase = "lbc.nn"
	// PhaseLBCProbe is LBC's dominance-probe stage: advancing the
	// cheapest path-distance-lower-bound session until the candidate is
	// dominated or fully resolved.
	PhaseLBCProbe Phase = "lbc.probe"
)

// PhaseStat is the accumulated cost of one phase across a query: how
// often the algorithm entered it, the wall time spent inside, and the
// network pages faulted and nodes settled while it was active.
type PhaseStat struct {
	Phase Phase
	// Count is the number of times the phase was entered (for example,
	// one lbc.probe per candidate).
	Count int
	// Duration is the total wall time spent inside the phase.
	Duration time.Duration
	// NetworkPages is the number of network disk pages faulted while the
	// phase was active.
	NetworkPages int64
	// NodesExpanded is the number of network nodes settled while the
	// phase was active.
	NodesExpanded int
}

// Tracer is a sink of finished queries. QueryDone receives the one
// FlightRecord every submission becomes, once, whatever its outcome —
// served, failed, cancelled, abandoned, or turned away at admission. A
// query with a Tracer collects its phase breakdown (rec.Phases) as if it
// ran under the flight recorder, and rec.Spans holds its causal trace when
// it ran with one.
//
// QueryDone runs on the goroutine that finishes the submission, after the
// query's work is done, so a Tracer shared by concurrent queries must be
// safe for concurrent use (SlogTracer is). rec's slices are shared with the flight
// recorder: read them, do not modify them.
type Tracer interface {
	QueryDone(rec FlightRecord)
}
