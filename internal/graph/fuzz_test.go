package graph

import (
	"strings"
	"testing"
)

// FuzzRead hardens the roadnet parser: arbitrary input must never panic,
// and every successfully parsed graph must satisfy the builder invariants
// (implicitly re-checked by a write/read round trip).
func FuzzRead(f *testing.F) {
	f.Add("roadnet 1\nnodes 2\n0 0\n1 0\nedges 1\n0 1 1\n")
	f.Add("roadnet 1\nnodes 0\nedges 0\n")
	f.Add("roadnet 1\nnodes 1\n0.5 0.5\nedges 0\n")
	f.Add("roadnet 9\n")
	f.Add("nodes 2\n")
	f.Add("roadnet 1\nnodes -1\nedges 0\n")
	f.Add("roadnet 1\nnodes 2\n0 0\n1 0\nedges 1\n0 1 -5\n")
	f.Add("roadnet 1\nnodes 100000000000\n0 0\n") // a count far beyond the input
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := g.Write(&sb); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		g2, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
	})
}

// FuzzReadCnodeCedge hardens the cnode/cedge parser the same way.
func FuzzReadCnodeCedge(f *testing.F) {
	f.Add("0 0 0\n1 1 1\n", "0 0 1 2\n")
	f.Add("", "")
	f.Add("0 0\n", "0 0 1 2\n")
	f.Add("0 0 0\n0 1 1\n", "")
	f.Add("# comment\n0 0 0\n", "# c\n")
	f.Fuzz(func(t *testing.T, nodes, edges string) {
		g, err := ReadCnodeCedge(strings.NewReader(nodes), strings.NewReader(edges))
		if err != nil {
			return
		}
		// Parsed graphs must pass validation (Build already ran) and
		// serialize cleanly.
		var sb strings.Builder
		if err := g.Write(&sb); err != nil {
			t.Fatalf("Write after successful parse: %v", err)
		}
	})
}
