package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"roadskyline/internal/geom"
)

// The text format is line-oriented and human-inspectable:
//
//	roadnet 1
//	nodes <n>
//	<x> <y>            (n lines, node ids are implicit 0..n-1)
//	edges <m>
//	<u> <v> <length>   (m lines, edge ids are implicit 0..m-1)
//
// It is the on-disk interchange format written by cmd/netgen and accepted by
// every tool, so downstream users can plug in real road networks.

const formatMagic = "roadnet"
const formatVersion = 1

// Write serializes g in the roadnet text format.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %d\n", formatMagic, formatVersion)
	fmt.Fprintf(bw, "nodes %d\n", len(g.nodes))
	for _, n := range g.nodes {
		fmt.Fprintf(bw, "%.17g %.17g\n", n.Pt.X, n.Pt.Y)
	}
	fmt.Fprintf(bw, "edges %d\n", len(g.edges))
	for _, e := range g.edges {
		fmt.Fprintf(bw, "%d %d %.17g\n", e.U, e.V, e.Length)
	}
	return bw.Flush()
}

// Read parses a graph in the roadnet text format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	var version int
	if _, err := fmt.Sscanf(line, formatMagic+" %d", &version); err != nil {
		return nil, fmt.Errorf("graph: bad magic line %q", line)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("graph: unsupported format version %d", version)
	}

	line, err = nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading node count: %w", err)
	}
	var numNodes int
	if _, err := fmt.Sscanf(line, "nodes %d", &numNodes); err != nil || numNodes < 0 {
		return nil, fmt.Errorf("graph: bad node count line %q", line)
	}
	// The count is the file's claim, not a size it has shown: preallocate
	// at most a modest hint and let the node list grow as nodes are read.
	b := NewBuilder(min(numNodes, 1<<16), 0)
	for i := 0; i < numNodes; i++ {
		line, err = nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: reading node %d: %w", i, err)
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("graph: node %d: want 2 fields, got %q", i, line)
		}
		x, err1 := strconv.ParseFloat(f[0], 64)
		y, err2 := strconv.ParseFloat(f[1], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graph: node %d: bad coordinates %q", i, line)
		}
		b.AddNode(geom.Point{X: x, Y: y})
	}

	line, err = nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	var numEdges int
	if _, err := fmt.Sscanf(line, "edges %d", &numEdges); err != nil || numEdges < 0 {
		return nil, fmt.Errorf("graph: bad edge count line %q", line)
	}
	for i := 0; i < numEdges; i++ {
		line, err = nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("graph: edge %d: want 3 fields, got %q", i, line)
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		l, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: edge %d: bad fields %q", i, line)
		}
		b.AddEdge(NodeID(u), NodeID(v), l)
	}
	return b.Build()
}

func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
