// Benchmarks regenerating every figure of the paper's evaluation
// (Section 6). Each BenchmarkFigNx runs the corresponding experiment at a
// reduced scale (experiments.Quick: networks scaled to 12%, 2 query sets
// per setting) and reports the figure's metric per algorithm through
// b.ReportMetric, so `go test -bench=Fig -benchmem` prints the paper's
// series. cmd/skylinebench runs the same experiments at full paper scale.
package roadskyline

import (
	"context"
	"strings"
	"testing"

	"roadskyline/internal/core"
	"roadskyline/internal/experiments"
	"roadskyline/internal/gen"
)

// quickLab is shared across benchmarks so each network generates once.
var quickLab = experiments.NewLab(experiments.Quick())

// reportTable exposes a reproduced figure through benchmark metrics: one
// sub-benchmark per algorithm column, the series encoded as x=value pairs.
func reportTable(b *testing.B, tab experiments.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + tab.String())
	for col, alg := range tab.Algs {
		var last float64
		for _, row := range tab.Rows {
			last = row.Values[col]
		}
		b.ReportMetric(last, alg+"_"+metricUnit(tab.Metric))
	}
}

func metricUnit(metric string) string {
	switch metric {
	case "|C|/|D|":
		return "candratio"
	case "pages":
		return "pages"
	case "ms":
		return "ms"
	default:
		// ReportMetric units must not contain whitespace.
		return strings.Map(func(r rune) rune {
			if r == ' ' || r == '/' {
				return -1
			}
			return r
		}, metric)
	}
}

func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickLab.Fig4a()
		reportTable(b, tab, err)
	}
}

func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickLab.Fig4b()
		reportTable(b, tab, err)
	}
}

func BenchmarkFig4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickLab.Fig4c()
		reportTable(b, tab, err)
	}
}

func benchFig3(b *testing.B, run func() ([3]experiments.Table, error), idx int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tabs, err := run()
		reportTable(b, tabs[idx], err)
	}
}

func BenchmarkFig5a(b *testing.B) { benchFig3(b, quickLab.Fig5, 0) }
func BenchmarkFig5b(b *testing.B) { benchFig3(b, quickLab.Fig5, 1) }
func BenchmarkFig5c(b *testing.B) { benchFig3(b, quickLab.Fig5, 2) }

func BenchmarkFig6a(b *testing.B) { benchFig3(b, quickLab.Fig6Q, 0) }
func BenchmarkFig6b(b *testing.B) { benchFig3(b, quickLab.Fig6Q, 1) }
func BenchmarkFig6c(b *testing.B) { benchFig3(b, quickLab.Fig6Q, 2) }

func BenchmarkFig6d(b *testing.B) { benchFig3(b, quickLab.Fig6W, 0) }
func BenchmarkFig6e(b *testing.B) { benchFig3(b, quickLab.Fig6W, 1) }
func BenchmarkFig6f(b *testing.B) { benchFig3(b, quickLab.Fig6W, 2) }

func BenchmarkAblationPLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickLab.AblationPLB()
		reportTable(b, tab, err)
	}
}

func BenchmarkAblationAStar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickLab.AblationAStar()
		reportTable(b, tab, err)
	}
}

func BenchmarkAblationClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickLab.AblationClustering()
		reportTable(b, tab, err)
	}
}

func BenchmarkAblationBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickLab.AblationBuffer()
		reportTable(b, tab, err)
	}
}

// BenchmarkAlgorithms is the per-query microbenchmark: one skyline query on
// the scaled NA network (|Q|=4, omega=50%) per iteration, per algorithm.
func BenchmarkAlgorithms(b *testing.B) {
	for _, alg := range []core.Algorithm{core.AlgCE, core.AlgEDC, core.AlgLBC} {
		b.Run(alg.String(), func(b *testing.B) {
			lab := quickLab
			env, err := lab.Env(gen.NA, 0.5, experiments.Quick().BufferBytes, 0)
			if err != nil {
				b.Fatal(err)
			}
			g, err := lab.Network(gen.NA)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := core.Query{Points: gen.QueryPoints(g, 4, 0.1, int64(i))}
				res, err := core.Run(context.Background(), env, q, alg, core.Options{ColdCache: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Skyline) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
	}
}

// BenchmarkEngineFacade measures the public API end to end on a small
// generated network.
func BenchmarkEngineFacade(b *testing.B) {
	n, err := Generate(NetworkSpec{Name: "bench", Nodes: 2000, Edges: 2500,
		Jitter: 0.3, MaxStretch: 0.15, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(n, n.GenerateObjects(0.5, 0, 7), EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	qp := n.GenerateQueryPoints(4, 0.1, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Skyline(Query{Points: qp, Algorithm: LBCAlg})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
