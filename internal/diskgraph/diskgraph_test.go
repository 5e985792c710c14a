package diskgraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/storage"
)

// gridGraph builds an n x n grid with jittered coordinates and shuffled
// node ids (so id order has poor spatial locality, exercising the Hilbert
// clustering).
func gridGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n * n) // grid cell -> node id
	inv := make([]graph.NodeID, n*n)
	b := graph.NewBuilder(n*n, 2*n*(n-1))
	pts := make([]geom.Point, n*n)
	for cell, id := range perm {
		_ = id
		x := float64(cell%n) / float64(n)
		y := float64(cell/n) / float64(n)
		pts[cell] = geom.Point{X: x + rng.Float64()*0.001, Y: y + rng.Float64()*0.001}
	}
	// Add nodes in id order; node id i corresponds to some grid cell.
	cellOf := make([]int, n*n)
	for cell, id := range perm {
		cellOf[id] = cell
	}
	for id := 0; id < n*n; id++ {
		nid := b.AddNode(pts[cellOf[id]])
		inv[cellOf[id]] = nid
	}
	for cell := 0; cell < n*n; cell++ {
		x, y := cell%n, cell/n
		if x+1 < n {
			u, v := inv[cell], inv[cell+1]
			b.AddEdge(u, v, pts[cell].Dist(pts[cell+1])*1.05)
		}
		if y+1 < n {
			u, v := inv[cell], inv[cell+n]
			b.AddEdge(u, v, pts[cell].Dist(pts[cell+n])*1.05)
		}
	}
	return b.MustBuild()
}

func buildStore(t *testing.T, g *graph.Graph, bufferBytes int, order Order) *Store {
	t.Helper()
	s, err := Build(g, storage.NewMemFile(), bufferBytes, order)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	g := gridGraph(t, 12, 1)
	for _, order := range []Order{OrderHilbert, OrderNodeID} {
		s := buildStore(t, g, storage.DefaultBufferBytes, order)
		if s.NumNodes() != g.NumNodes() {
			t.Fatalf("NumNodes = %d, want %d", s.NumNodes(), g.NumNodes())
		}
		var buf []Neighbor
		for id := 0; id < g.NumNodes(); id++ {
			nid := graph.NodeID(id)
			pt, err := s.NodePoint(nid)
			if err != nil {
				t.Fatalf("NodePoint(%d): %v", id, err)
			}
			if pt != g.NodePoint(nid) {
				t.Fatalf("NodePoint(%d) = %v, want %v", id, pt, g.NodePoint(nid))
			}
			buf, err = s.Neighbors(nid, buf[:0])
			if err != nil {
				t.Fatalf("Neighbors(%d): %v", id, err)
			}
			adj := g.Adj(nid)
			if len(buf) != adj.Len() {
				t.Fatalf("node %d: %d neighbors, want %d", id, len(buf), adj.Len())
			}
			for i, nb := range buf {
				he := adj.At(i)
				if nb.To != he.To || nb.Edge != he.Edge || nb.Length != he.Length {
					t.Fatalf("node %d neighbor %d: %+v vs %+v", id, i, nb, he)
				}
				if nb.ToPt != g.NodePoint(he.To) {
					t.Fatalf("node %d neighbor %d: ToPt %v, want %v", id, i, nb.ToPt, g.NodePoint(he.To))
				}
			}
		}
	}
}

func TestNeighborsAppends(t *testing.T) {
	g := gridGraph(t, 4, 2)
	s := buildStore(t, g, storage.DefaultBufferBytes, OrderHilbert)
	buf := make([]Neighbor, 1, 8)
	buf[0] = Neighbor{To: 99}
	out, err := s.Neighbors(0, buf)
	if err != nil {
		t.Fatalf("Neighbors: %v", err)
	}
	if out[0].To != 99 {
		t.Error("Neighbors overwrote existing buffer contents")
	}
	if len(out) != 1+g.Adj(0).Len() {
		t.Errorf("appended %d, want %d", len(out)-1, g.Adj(0).Len())
	}
}

// A spatially local walk over a Hilbert-clustered store must fault far
// fewer pages than over an id-ordered store when node ids are shuffled.
func TestHilbertClusteringLocality(t *testing.T) {
	g := gridGraph(t, 40, 3) // 1600 nodes
	misses := func(order Order) int64 {
		s := buildStore(t, g, 4*storage.PageSize, order) // tiny buffer
		// BFS from node 0 simulates a wavefront.
		visited := make([]bool, g.NumNodes())
		queue := []graph.NodeID{0}
		visited[0] = true
		var buf []Neighbor
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			var err error
			buf, err = s.Neighbors(u, buf[:0])
			if err != nil {
				t.Fatalf("Neighbors: %v", err)
			}
			for _, nb := range buf {
				if !visited[nb.To] {
					visited[nb.To] = true
					queue = append(queue, nb.To)
				}
			}
		}
		return s.Pool().Stats().Misses
	}
	h, r := misses(OrderHilbert), misses(OrderNodeID)
	if h*2 > r {
		t.Errorf("hilbert clustering not effective: %d misses vs %d id-ordered", h, r)
	}
}

func TestDegreeTooHigh(t *testing.T) {
	b := graph.NewBuilder(200, 200)
	center := b.AddNode(geom.Point{X: 0.5, Y: 0.5})
	for i := 0; i < 150; i++ {
		v := b.AddNode(geom.Point{X: float64(i) / 150, Y: 0})
		b.AddEdge(center, v, 2)
	}
	g := b.MustBuild()
	if _, err := Build(g, storage.NewMemFile(), storage.DefaultBufferBytes, OrderHilbert); err == nil {
		t.Error("degree-150 node should overflow a page and fail")
	}
}

func TestEmptyAndIsolated(t *testing.T) {
	// Graph with isolated nodes (degree 0) must round-trip.
	b := graph.NewBuilder(3, 1)
	b.AddNode(geom.Point{X: 0, Y: 0})
	b.AddNode(geom.Point{X: 1, Y: 0})
	b.AddNode(geom.Point{X: 0.5, Y: 0.5})
	b.AddEdge(0, 1, 1)
	g := b.MustBuild()
	s := buildStore(t, g, storage.DefaultBufferBytes, OrderHilbert)
	buf, err := s.Neighbors(2, nil)
	if err != nil {
		t.Fatalf("Neighbors(isolated): %v", err)
	}
	if len(buf) != 0 {
		t.Errorf("isolated node has %d neighbors", len(buf))
	}

	// Empty graph.
	empty := graph.NewBuilder(0, 0).MustBuild()
	s2, err := Build(empty, storage.NewMemFile(), storage.DefaultBufferBytes, OrderHilbert)
	if err != nil {
		t.Fatalf("Build empty: %v", err)
	}
	if s2.NumNodes() != 0 || s2.NumPages() != 0 {
		t.Error("empty store not empty")
	}
}

func TestPageAccountingWarmVsCold(t *testing.T) {
	g := gridGraph(t, 10, 4)
	s := buildStore(t, g, storage.DefaultBufferBytes, OrderHilbert)
	var buf []Neighbor
	for i := 0; i < g.NumNodes(); i++ {
		buf, _ = s.Neighbors(graph.NodeID(i), buf[:0])
	}
	cold := s.Pool().Stats()
	if cold.Misses == 0 || cold.Misses > int64(s.NumPages()) {
		t.Fatalf("cold misses = %d, pages = %d", cold.Misses, s.NumPages())
	}
	s.Pool().ResetStats()
	for i := 0; i < g.NumNodes(); i++ {
		buf, _ = s.Neighbors(graph.NodeID(i), buf[:0])
	}
	warm := s.Pool().Stats()
	if warm.Misses != 0 {
		t.Errorf("warm pass faulted %d pages with a large buffer", warm.Misses)
	}
}

// A store built in one process must be reopenable over the page file plus
// its directory, and serve identical records through any backend.
func TestDirectoryOpen(t *testing.T) {
	g := gridGraph(t, 8, 21)
	pagesPath := filepath.Join(t.TempDir(), "adjacency.pages")
	file, err := storage.CreateOSFile(pagesPath)
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(g, file, storage.DefaultBufferBytes, OrderHilbert)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := built.Directory()
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
		pf, actual, err := storage.Open(pagesPath, backend)
		if err != nil {
			t.Fatalf("storage.Open(%v): %v", backend, err)
		}
		s, err := Open(pf, storage.DefaultBufferBytes, dir, g.NumEdges())
		if err != nil {
			t.Fatalf("Open via %v: %v", actual, err)
		}
		if s.NumNodes() != g.NumNodes() || s.NumPages() != built.NumPages() {
			t.Fatalf("%v: nodes=%d pages=%d, want %d/%d", actual, s.NumNodes(), s.NumPages(), g.NumNodes(), built.NumPages())
		}
		var buf []Neighbor
		for id := 0; id < g.NumNodes(); id++ {
			nid := graph.NodeID(id)
			pt, err := s.NodePoint(nid)
			if err != nil {
				t.Fatalf("%v: NodePoint(%d): %v", actual, id, err)
			}
			if pt != g.NodePoint(nid) {
				t.Fatalf("%v: NodePoint(%d) = %v, want %v", actual, id, pt, g.NodePoint(nid))
			}
			buf, err = s.Neighbors(nid, buf[:0])
			if err != nil {
				t.Fatalf("%v: Neighbors(%d): %v", actual, id, err)
			}
			adj := g.Adj(nid)
			if len(buf) != adj.Len() {
				t.Fatalf("%v: node %d has %d neighbors, want %d", actual, id, len(buf), adj.Len())
			}
			for i, nb := range buf {
				he := adj.At(i)
				if nb.To != he.To || nb.Edge != he.Edge || nb.Length != he.Length || nb.ToPt != g.NodePoint(he.To) {
					t.Fatalf("%v: node %d neighbor %d = %+v, want %+v", actual, id, i, nb, he)
				}
			}
		}
		pf.Close()
	}

	// A directory that disagrees with the page file is rejected.
	pf, _, err := storage.Open(pagesPath, storage.BackendFile)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pastEnd := bytes.Clone(dir)
	binary.LittleEndian.PutUint32(pastEnd[6*5:], uint32(built.NumPages()))
	offPage := bytes.Clone(dir)
	binary.LittleEndian.PutUint16(offPage[6*5+4:], storage.PageSize-recHeaderSize+1)
	for name, bad := range map[string][]byte{
		"truncated":           dir[:len(dir)-1],
		"page past the file":  pastEnd,
		"record off its page": offPage,
	} {
		if _, err := Open(pf, storage.DefaultBufferBytes, bad, g.NumEdges()); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("Open with a %s directory: %v, want ErrCorrupt", name, err)
		}
	}
}
