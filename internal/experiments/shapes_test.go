package experiments

import (
	"testing"

	"roadskyline/internal/core"
	"roadskyline/internal/gen"
)

// TestPaperShapes asserts the qualitative claims of the paper's evaluation
// at reduced scale — the same checks EXPERIMENTS.md reports at full scale.
// Scale 0.12 keeps the test under a minute while preserving every ordering.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment sweep")
	}
	lab := NewLab(Quick())

	// Fig 4(a): candidate ratio grows with |Q|; LBC lowest at every point.
	f4a, err := lab.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	first, last := f4a.Rows[0], f4a.Rows[len(f4a.Rows)-1]
	for col := range f4a.Algs {
		if last.Values[col] <= first.Values[col] {
			t.Errorf("Fig4a %s: ratio did not grow with |Q| (%v -> %v)",
				f4a.Algs[col], first.Values[col], last.Values[col])
		}
	}
	for _, r := range f4a.Rows[1:] {
		if lbc := r.Values[2]; lbc > r.Values[0] || lbc > r.Values[1] {
			t.Errorf("Fig4a |Q|=%s: LBC ratio %v not lowest (CE %v, EDC %v)",
				r.X, lbc, r.Values[0], r.Values[1])
		}
	}

	// Fig 4(b): ratios roughly flat in omega. At this reduced scale two
	// trials leave visible noise, so the bound is loose; the full-scale run
	// in EXPERIMENTS.md is flat to within a few percent.
	f4b, err := lab.Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	for col, alg := range f4b.Algs {
		lo, hi := f4b.Rows[0].Values[col], f4b.Rows[0].Values[col]
		for _, r := range f4b.Rows {
			if v := r.Values[col]; v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		if hi > lo*1.6 {
			t.Errorf("Fig4b %s: ratio varies %v..%v across omega (should be ~flat)", alg, lo, hi)
		}
	}

	// Fig 4(c): EDC worst on the sparsest network (CA), best ratio gap on NA.
	f4c, err := lab.Fig4c()
	if err != nil {
		t.Fatal(err)
	}
	ca, na := f4c.Rows[0], f4c.Rows[len(f4c.Rows)-1]
	if ca.Values[1] <= ca.Values[0] {
		t.Errorf("Fig4c CA: EDC ratio %v should exceed CE %v on the sparse network",
			ca.Values[1], ca.Values[0])
	}
	if na.Values[2] >= na.Values[0] || na.Values[2] >= na.Values[1] {
		t.Errorf("Fig4c NA: LBC %v should be lowest (CE %v, EDC %v)",
			na.Values[2], na.Values[0], na.Values[1])
	}

	// Fig 5(a): pages grow with density for every algorithm; CE most pages
	// and LBC fewest on NA.
	f5, err := lab.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	pages := f5[0]
	for col, alg := range pages.Algs {
		if pages.Rows[len(pages.Rows)-1].Values[col] <= pages.Rows[0].Values[col] {
			t.Errorf("Fig5a %s: pages did not grow with density", alg)
		}
	}
	// The paper's ordering is over the paper's EDC, which computes every
	// candidate's vector in full (DisablePLB); the figures' EDC verifies
	// candidates bounds-first and reads fewer pages than LBC here.
	naPages := pages.Rows[len(pages.Rows)-1]
	paperEDC, err := lab.Measure(gen.NA, lab.cfg.DefaultOmega, lab.cfg.DefaultQ, core.AlgEDC, core.Options{DisablePLB: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(naPages.Values[2] < paperEDC.Pages && paperEDC.Pages < naPages.Values[0]) {
		t.Errorf("Fig5a NA: want LBC < the paper's EDC < CE, got LBC %v, EDC %v, CE %v",
			naPages.Values[2], paperEDC.Pages, naPages.Values[0])
	}
	for _, spec := range gen.Paper {
		bound, err := lab.Measure(spec, lab.cfg.DefaultOmega, lab.cfg.DefaultQ, core.AlgEDC, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		paper, err := lab.Measure(spec, lab.cfg.DefaultOmega, lab.cfg.DefaultQ, core.AlgEDC, core.Options{DisablePLB: true})
		if err != nil {
			t.Fatal(err)
		}
		if bound.Pages > paper.Pages || bound.Nodes > paper.Nodes {
			t.Errorf("%s: bound-first EDC reads %v pages and expands %v nodes, the paper's EDC %v and %v",
				spec.Name, bound.Pages, bound.Nodes, paper.Pages, paper.Nodes)
		}
	}

	// Fig 5(b)/(c): LBC fastest total and initial response on NA.
	for i, name := range []string{"total", "initial"} {
		row := f5[i+1].Rows[len(f5[i+1].Rows)-1]
		if row.Values[2] >= row.Values[0] {
			t.Errorf("Fig5 NA %s: LBC %v not faster than CE %v", name, row.Values[2], row.Values[0])
		}
	}

	// Fig 6(c): CE's initial response grows sharply with |Q|; LBC stays low.
	f6q, err := lab.Fig6Q()
	if err != nil {
		t.Fatal(err)
	}
	init := f6q[2]
	firstQ, lastQ := init.Rows[0], init.Rows[len(init.Rows)-1]
	if lastQ.Values[0] < 2*firstQ.Values[0] {
		t.Errorf("Fig6c: CE initial response should grow with |Q| (%v -> %v)",
			firstQ.Values[0], lastQ.Values[0])
	}
	if lastQ.Values[2] >= lastQ.Values[0]/2 {
		t.Errorf("Fig6c: LBC initial %v should stay far below CE %v",
			lastQ.Values[2], lastQ.Values[0])
	}

	// Fig 6(d): EDC and LBC pages flat in omega (within 40%).
	f6w, err := lab.Fig6W()
	if err != nil {
		t.Fatal(err)
	}
	dPages := f6w[0]
	for _, col := range []int{1, 2} {
		lo, hi := dPages.Rows[0].Values[col], dPages.Rows[0].Values[col]
		for _, r := range dPages.Rows {
			if v := r.Values[col]; v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		if hi > lo*1.4 {
			t.Errorf("Fig6d %s: pages vary %v..%v across omega", dPages.Algs[col], lo, hi)
		}
	}

	// Section 5 analysis: N(LBC) <= N(CE) pages at every measured setting.
	for _, spec := range gen.Paper {
		ce, err := lab.Measure(spec, lab.cfg.DefaultOmega, lab.cfg.DefaultQ, core.AlgCE, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lbc, err := lab.Measure(spec, lab.cfg.DefaultOmega, lab.cfg.DefaultQ, core.AlgLBC, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lbc.Pages > ce.Pages {
			t.Errorf("%s: LBC pages %v > CE pages %v", spec.Name, lbc.Pages, ce.Pages)
		}
	}
}
