package sp

import (
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
)

// TargetHeuristic supplies admissible lower bounds on the network distance
// from graph nodes to one fixed target location. Implementations must be
// consistent (|h(u) - h(v)| <= d(u, v) for adjacent u, v): the A* searcher
// never reopens settled nodes, which is only sound under consistency.
type TargetHeuristic interface {
	// Bound returns a lower bound on the network distance from node u to
	// the heuristic's target. It must never exceed the true distance and
	// may be +Inf when u provably cannot reach the target.
	Bound(u graph.NodeID) float64
}

// HeuristicSource creates per-target heuristics. An AStar searcher with a
// source keys its sessions by max(Euclidean, source bound) — any admissible
// consistent bound composes with the paper's Euclidean heuristic this way,
// because the max of consistent admissible heuristics is consistent and
// admissible. The landmark (ALT) table in internal/landmark is the engine's
// implementation.
type HeuristicSource interface {
	// ForTarget returns the heuristic toward dest located at destPt. It is
	// called at most once per Target — once per session for NewSession,
	// once for all the sessions and bounds a shared Target is handed to;
	// Bound is called on the hot path, so per-target work (e.g. landmark
	// distance lookups for the target edge's endpoints) belongs here.
	ForTarget(dest graph.Location, destPt geom.Point) TargetHeuristic
}
