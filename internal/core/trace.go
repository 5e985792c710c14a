package core

import (
	"slices"
	"time"

	"roadskyline/internal/obs"
	"roadskyline/internal/sp"
)

// phaseProbe attributes one query's work to algorithm phases. end is the
// single writer of both descriptions of a phase entry: the PhaseStat row
// accumulated into Metrics.Phases and, when the query carries a causal
// trace, the span appended to it. Page counts come from the environment's
// I/O counters snapshotted at phase boundaries; node counts from the
// query's searchers.
//
// A nil *phaseProbe is the disabled state: every method returns
// immediately, so the algorithms call begin/end unconditionally and the
// cost with phases off is one nil check per phase boundary.
type phaseProbe struct {
	trace     *obs.Trace // nil when the query carries no causal trace
	env       *Env
	searchers []*sp.AStar
	tick      func(int) // the searchers' progress callback; nil without a trace

	active bool
	cur    obs.Phase
	t0     time.Time
	pages0 int64
	nodes0 int

	stats []obs.PhaseStat
	idx   map[obs.Phase]int
}

// newPhaseProbe returns nil when opts neither collect phases nor carry a
// causal trace. With a trace it installs on every searcher the settlement
// tick that keeps the trace's live node count current.
func newPhaseProbe(env *Env, opts Options, searchers []*sp.AStar) *phaseProbe {
	if !opts.CollectPhases && opts.Trace == nil {
		return nil
	}
	pp := &phaseProbe{
		trace:     opts.Trace,
		env:       env,
		searchers: slices.Clip(searchers),
		idx:       make(map[obs.Phase]int, 4),
	}
	if pp.trace != nil {
		pp.tick = func(int) { pp.trace.SetNodes(pp.nodes()) }
		for _, s := range searchers {
			s.OnProgress(pp.tick)
		}
	}
	return pp
}

// watch adds s, a searcher built after the probe (CE's refiners), to the
// searchers whose settlements the probe counts and ticks. s has settled
// nothing yet, so the open phase's delta holds.
func (pp *phaseProbe) watch(s *sp.AStar) {
	if pp == nil {
		return
	}
	pp.searchers = append(pp.searchers, s)
	if pp.tick != nil {
		s.OnProgress(pp.tick)
	}
}

// nodes returns the running settlement total across the query's searchers.
func (pp *phaseProbe) nodes() int {
	total := 0
	for _, s := range pp.searchers {
		total += s.NodesExpanded()
	}
	return total
}

// begin enters a phase, closing any phase still open.
func (pp *phaseProbe) begin(p obs.Phase) {
	if pp == nil {
		return
	}
	if pp.active {
		pp.end()
	}
	pp.active, pp.cur = true, p
	pp.t0 = time.Now()
	pp.pages0 = pp.env.pagesFaulted()
	pp.nodes0 = pp.nodes()
	pp.trace.SetPhase(p)
}

// end leaves the current phase, attributing the elapsed time and the page
// and settlement deltas to its row and its span. A no-op when no phase is
// open.
func (pp *phaseProbe) end() {
	if pp == nil || !pp.active {
		return
	}
	pp.active = false
	d := time.Since(pp.t0)
	pages := pp.env.pagesFaulted() - pp.pages0
	nodes := pp.nodes() - pp.nodes0
	i, ok := pp.idx[pp.cur]
	if !ok {
		i = len(pp.stats)
		pp.idx[pp.cur] = i
		pp.stats = append(pp.stats, obs.PhaseStat{Phase: pp.cur})
	}
	ps := &pp.stats[i]
	ps.Count++
	ps.Duration += d
	ps.NetworkPages += pages
	ps.NodesExpanded += nodes
	if pp.trace != nil {
		pp.trace.AddSpan(obs.Span{Name: string(pp.cur), Start: pp.t0, Dur: d, Pages: pages, Nodes: nodes})
		pp.trace.SetNodes(pp.nodes())
	}
}

// transition moves from one phase to another only when `from` is the
// phase currently open; CE uses it for the single filter→refine flip
// without tracking the state itself.
func (pp *phaseProbe) transition(from, to obs.Phase) {
	if pp == nil || !pp.active || pp.cur != from {
		return
	}
	pp.end()
	pp.begin(to)
}

// finish closes any open phase and stores the breakdown in the metrics.
func (pp *phaseProbe) finish(m *Metrics) {
	if pp == nil {
		return
	}
	pp.end()
	m.Phases = pp.stats
	pp.trace.ClearPhase()
}
