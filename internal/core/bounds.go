package core

import "roadskyline/internal/sp"

// boundVec tightens one candidate object's vector of network-distance lower
// bounds, one entry per query-point searcher, until the caller's stop rule
// fires or every entry is exact. LBC's dominance check and EDC's verification
// of a window candidate are this loop with different stop rules.
//
// The cheapest bounds come first (refine): an A* session's opening scan
// reads the whole frontier, so a session is opened only once the
// frontier-free bounds have failed to stop the candidate, and none advances
// before all are open.
type boundVec struct {
	astars []*sp.AStar
	// lb holds the bounds; entries past len(astars) (static attributes)
	// belong to the caller. A stop rule reads it through test, never raw.
	lb []float64
	// known marks the entries the caller filled with the distance before
	// refine; they open no session and refine leaves them alone.
	known    []bool
	exact    []bool        // test's scratch: lb[i] is a distance, not a bound
	floor    []float64     // test's result, reused
	sessions []*sp.Session // nil until opened
	target   sp.Target     // the candidate, its heuristic shared by all sessions
	// runOut makes every picked session run to completion instead of
	// advancing one step (the DisablePLB ablation).
	runOut bool
	m      *Metrics
}

func newBoundVec(astars []*sp.AStar, dims int, m *Metrics) *boundVec {
	return &boundVec{
		astars:   astars,
		lb:       make([]float64, dims),
		known:    make([]bool, len(astars)),
		exact:    make([]bool, len(astars)),
		floor:    make([]float64, dims),
		sessions: make([]*sp.Session, len(astars)),
		m:        m,
	}
}

// floorBounds writes to dst the vector a stop rule may test in lb's place. A
// bound proves dominance only at its floor: raw, an sp.AStar.Bound or a PLB
// may sit ulps above the distance it bounds, and an object would then look
// strictly worse than its bit-identical twin. Every entry of lb not marked
// exact is taken at sp.BoundFloor; the exact ones are distances and the
// entries past len(exact) static attributes, and both pass as they are.
func floorBounds(dst, lb []float64, exact []bool) []float64 {
	copy(dst, lb)
	for i, ex := range exact {
		if !ex {
			dst[i] = sp.BoundFloor(lb[i])
		}
	}
	return dst
}

// test returns the vector refine's stop rule reads, valid until the next
// call: floorBounds of lb, the exact entries being the known ones and those
// whose session is done.
func (b *boundVec) test() []float64 {
	for i, s := range b.sessions {
		b.exact[i] = b.known[i] || (s != nil && s.Done())
	}
	return floorBounds(b.floor, b.lb, b.exact)
}

// refine tightens lb toward the network distances to t until stop reports
// true, returning false, or every distance is exact, returning true. The
// known entries were filled by the caller with the distance and are left
// alone. from, when not nil, holds lower bounds on t's distances that read no
// frontier (sp.AStar.Bound per searcher — constants of the query — or larger)
// computed earlier with t itself, so neither they nor t's heuristic are built
// again.
//
// Three phases, each entered only while stop keeps reporting false:
//
//  1. every entry is a's frontier-free sp.AStar.Bound, except where both
//     endpoints of the target edge are settled — that session is opened at
//     once, it costs no scan and yields the exact distance;
//  2. the unopened session with the smallest entry is opened and its opening
//     PLB overwrites the entry (overwrites, not maxes: a landmark-table bound
//     can sit an ulp above the searcher's own sums, and the vector must end
//     up bit for bit what opening every session first produces);
//  3. with all sessions open, the unfinished one with the smallest entry
//     advances one expansion step.
//
// Opening a session moves no wavefront, phase 3 starts from the vector an
// open-all-first loop starts from, and stop is monotone in the vector, so
// the Advance sequence is that loop's exactly.
func (b *boundVec) refine(t sp.Target, from []float64, stop func() bool) (bool, error) {
	b.target = t
	for i, a := range b.astars {
		b.sessions[i] = nil
		switch {
		case b.known[i]:
		case a.Resolved(&b.target):
			b.open(i)
		case from != nil:
			b.lb[i] = from[i]
		default:
			b.lb[i] = a.Bound(&b.target)
		}
	}
	for !stop() {
		if i := b.pick(false); i != -1 {
			b.open(i)
			b.m.sessionScans++
			continue
		}
		pick := b.pick(true)
		if pick == -1 {
			return true, nil
		}
		s := b.sessions[pick]
		if b.runOut {
			d, err := s.Run()
			if err != nil {
				return false, err
			}
			b.lb[pick] = d
			b.m.DistanceComputations++
			continue
		}
		plb, done, err := s.Advance()
		if err != nil {
			return false, err
		}
		b.lb[pick] = plb
		if done {
			b.m.DistanceComputations++
		}
	}
	return false, nil
}

// completed returns how many of the candidate's distances are exact: the
// sessions that finished, at opening or by advancing.
func (b *boundVec) completed() int {
	n := 0
	for _, s := range b.sessions {
		if s != nil && s.Done() {
			n++
		}
	}
	return n
}

// open opens session i and takes its opening bound.
func (b *boundVec) open(i int) {
	b.sessions[i] = b.astars[i].OpenSession(&b.target)
	b.lb[i] = b.sessions[i].PLB()
}

// pick returns the entry with the smallest bound among the unopened
// sessions, or with opened set among the opened unfinished ones; -1 when
// there is none. Ties go to the lowest index.
func (b *boundVec) pick(opened bool) int {
	pick := -1
	for i, s := range b.sessions {
		if b.known[i] || (s != nil) != opened || (opened && s.Done()) {
			continue
		}
		if pick == -1 || b.lb[i] < b.lb[pick] {
			pick = i
		}
	}
	return pick
}
