package experiments

import (
	"fmt"

	"roadskyline/internal/core"
	"roadskyline/internal/diskgraph"
	"roadskyline/internal/gen"
)

// AblationPLB isolates the path distance lower bound: LBC and EDC as they
// run against variants that compute every candidate's full network
// distances (no early abandonment) — for EDC that variant is the paper's
// algorithm. Each pair returns identical skylines; the difference in network
// pages and nodes expanded is the plb's contribution (|Q|=4, omega=50%).
func (l *Lab) AblationPLB() (Table, error) {
	t := Table{
		Figure: "Ablation A1", Title: "Path distance lower bound (LBC and EDC with and without plb)",
		XLabel: "network/algorithm", Metric: "pages / nodes expanded",
		Algs: []string{"pages", "noplb-pages", "nodes", "noplb-nodes"},
	}
	for _, spec := range gen.Paper {
		for _, alg := range []core.Algorithm{core.AlgLBC, core.AlgEDC} {
			with, err := l.Measure(spec, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{})
			if err != nil {
				return t, err
			}
			without, err := l.Measure(spec, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{DisablePLB: true})
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, Row{X: spec.Name + "/" + alg.String(), Values: []float64{
				with.Pages, without.Pages, with.Nodes, without.Nodes,
			}})
		}
	}
	return t, nil
}

// AblationAStar isolates A*'s directional expansion inside EDC and LBC by
// zeroing the heuristic (the searcher degrades to a resumable Dijkstra).
// The paper credits EDC's edge over CE to exactly this (Section 6.3).
func (l *Lab) AblationAStar() (Table, error) {
	t := Table{
		Figure: "Ablation A2", Title: "A* directional expansion (zeroed heuristic ablation, NA)",
		XLabel: "algorithm", Metric: "network pages", Algs: []string{"A*", "no-heuristic"},
	}
	for _, alg := range []core.Algorithm{core.AlgEDC, core.AlgLBC} {
		with, err := l.Measure(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{})
		if err != nil {
			return t, err
		}
		without, err := l.Measure(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{DisableAStarHeuristic: true})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{X: alg.String(), Values: []float64{with.Pages, without.Pages}})
	}
	return t, nil
}

// AblationLandmarks isolates the landmark (ALT) lower bounds inside the A*
// searchers of EDC and LBC: the same queries with the landmark table
// attached (heuristic = max of Euclidean and triangle bound) and with the
// pure Euclidean heuristic of the paper. The skylines are identical; the
// difference in nodes expanded is the landmarks' contribution
// (NA, |Q|=4, omega=50%).
func (l *Lab) AblationLandmarks() (Table, error) {
	t := Table{
		Figure: "Ablation A5", Title: "Landmark (ALT) lower bounds (NA)",
		XLabel: "algorithm", Metric: "nodes expanded / network pages",
		Algs: []string{"nodes", "euclid-nodes", "pages", "euclid-pages"},
	}
	for _, alg := range []core.Algorithm{core.AlgEDC, core.AlgLBC} {
		with, err := l.Measure(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{})
		if err != nil {
			return t, err
		}
		without, err := l.Measure(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{DisableLandmarks: true})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{X: alg.String(), Values: []float64{
			with.Nodes, without.Nodes, with.Pages, without.Pages,
		}})
	}
	return t, nil
}

// AblationClustering isolates the Hilbert clustering of adjacency lists
// (paper Section 6.1) by storing node records in node-id order instead.
func (l *Lab) AblationClustering() (Table, error) {
	t := Table{
		Figure: "Ablation A3", Title: "Hilbert disk clustering of adjacency lists (NA)",
		XLabel: "algorithm", Metric: "network pages", Algs: []string{"hilbert", "id-order"},
	}
	for _, alg := range []core.Algorithm{core.AlgCE, core.AlgLBC} {
		h, err := l.measureWith(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{}, l.cfg.BufferBytes, diskgraph.OrderHilbert)
		if err != nil {
			return t, err
		}
		r, err := l.measureWith(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, alg, core.Options{}, l.cfg.BufferBytes, diskgraph.OrderNodeID)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{X: alg.String(), Values: []float64{h.Pages, r.Pages}})
	}
	return t, nil
}

// AblationBuffer sweeps the LRU buffer size (paper default 1 MB) for CE and
// LBC on NA.
func (l *Lab) AblationBuffer() (Table, error) {
	t := Table{
		Figure: "Ablation A4", Title: "LRU buffer size (NA, |Q|=4, omega=50%)",
		XLabel: "buffer", Metric: "network pages", Algs: []string{"CE", "LBC"},
	}
	for _, kb := range []int{64, 256, 1024, 4096} {
		bytes := kb * 1024
		ce, err := l.measureWith(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, core.AlgCE, core.Options{}, bytes, diskgraph.OrderHilbert)
		if err != nil {
			return t, err
		}
		lbc, err := l.measureWith(gen.NA, l.cfg.DefaultOmega, l.cfg.DefaultQ, core.AlgLBC, core.Options{}, bytes, diskgraph.OrderHilbert)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%dKB", kb), Values: []float64{ce.Pages, lbc.Pages}})
	}
	return t, nil
}
