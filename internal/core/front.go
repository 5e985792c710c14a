package core

import (
	"slices"

	"roadskyline/internal/graph"
	"roadskyline/internal/skyline"
)

// paretoFront is the Pareto front of the exact network vectors a query has
// computed, all-+Inf ones left out, with the candidates among them that are
// not yet determined. Every member is a real object's vector and strict
// dominance is transitive, so whatever any vector computed so far dominates,
// a member dominates. EDC files every vector it completes here, and so does
// CE's refinement, whose front starts with the skyline points reported
// before admission closed.
type paretoFront struct {
	f     *frame
	res   *Result
	vecs  [][]float64
	cands map[graph.ObjectID][]float64 // undetermined, all on the front when they joined
}

func newParetoFront(f *frame, res *Result, vecs [][]float64) *paretoFront {
	return &paretoFront{f: f, res: res, vecs: vecs, cands: make(map[graph.ObjectID][]float64)}
}

// admit files an object's exact vector. One that is all +Inf or dominated by
// the front can never be reported and dominates nothing the front does not,
// so it is dropped here, returning false; any other joins the candidates and
// the front, evicting the members it dominates.
func (p *paretoFront) admit(id graph.ObjectID, vec []float64) bool {
	if unreachableVec(vec, p.f.n) || skyline.DominatedBy(vec, p.vecs) {
		return false
	}
	p.vecs = slices.DeleteFunc(p.vecs, func(m []float64) bool { return skyline.Dominates(vec, m) })
	p.vecs = append(p.vecs, vec)
	p.cands[id] = vec
	return true
}

// resolve determines the candidates whose vector fits under pbar (all of
// them when pbar is nil): each is reported as a skyline point unless a
// vector computed since evicted it from the front. They resolve in id order
// — each outcome is order-independent, but map order would make the report
// order jitter from run to run.
func (p *paretoFront) resolve(pbar []float64) {
	var ids []graph.ObjectID
	for id, vec := range p.cands {
		if pbar == nil || skyline.DominatesOrEqual(vec, pbar) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	n := p.f.n
	for _, id := range ids {
		vec := p.cands[id]
		delete(p.cands, id)
		if skyline.DominatedBy(vec, p.vecs) {
			continue
		}
		p.res.Skyline = append(p.res.Skyline, p.f.report(SkylinePoint{
			Object: p.f.env.Objects[id],
			Dists:  vec[:n:n],
			Vec:    vec,
		}))
	}
}
