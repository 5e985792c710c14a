package main

import (
	"fmt"
	"math"
	"sort"

	"roadskyline"
	"roadskyline/internal/core"
)

// distTolerance is how far a reported network distance may sit from the
// oracle's: the two Dijkstras add the same edge lengths in different orders.
const distTolerance = 1e-9

// answer is what came back for one query, from whichever front it came.
type answer struct {
	ids   []int32
	dists [][]float64
	stats roadskyline.Stats
	bytes int          // HTTP body size; 0 in process
	raw   []byte       // HTTP body not yet decoded (see decode)
	core  core.Metrics // counters of a direct core.Run (traced pass only)
}

// check compares an answer with the oracle's skyline by object-id set and,
// for each object, its distance to every query point.
func (q *query) check(a *answer) error {
	if len(a.ids) != len(q.want) {
		return fmt.Errorf("skyline has %d points, oracle %d", len(a.ids), len(q.want))
	}
	order := make([]int, len(a.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return a.ids[order[x]] < a.ids[order[y]] })
	for k, w := range q.want {
		got := order[k]
		if a.ids[got] != w.id {
			return fmt.Errorf("object %d in answer where oracle has %d", a.ids[got], w.id)
		}
		if len(a.dists[got]) != len(w.dists) {
			return fmt.Errorf("object %d has %d distances, want %d", w.id, len(a.dists[got]), len(w.dists))
		}
		for j, d := range w.dists {
			if g := a.dists[got][j]; !(math.Abs(g-d) <= distTolerance) && g != d {
				return fmt.Errorf("object %d distance %d is %.12g, oracle %.12g", w.id, j, g, d)
			}
		}
	}
	return nil
}

func answerOf(res *roadskyline.Result) *answer {
	a := &answer{ids: make([]int32, len(res.Points)), dists: make([][]float64, len(res.Points)), stats: res.Stats}
	for i, p := range res.Points {
		a.ids[i], a.dists[i] = p.Object.ID, p.Distances
	}
	return a
}
