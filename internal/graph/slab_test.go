package graph

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"roadskyline/internal/geom"
	"roadskyline/internal/storage"
)

// slabTestGraph builds a small random graph with self-loops and parallel
// edges (the layouts the CSR packing has to get right).
func slabTestGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, 3*n)
	for i := 0; i < n; i++ {
		b.AddNode(geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	for i := 1; i < n; i++ {
		u, v := NodeID(rng.Intn(i)), NodeID(i)
		d := b.nodes[u].Pt.Dist(b.nodes[v].Pt)
		b.AddEdge(u, v, d*(1+rng.Float64()))
	}
	b.AddEdge(0, 0, 0.25) // self-loop
	if n >= 2 {
		b.AddEdge(0, 1, b.nodes[0].Pt.Dist(b.nodes[1].Pt)*1.5+0.01) // parallel edge
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func graphsEqual(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d",
			name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got.Bounds() != want.Bounds() {
		t.Errorf("%s: bounds %+v, want %+v", name, got.Bounds(), want.Bounds())
	}
	for i := 0; i < want.NumNodes(); i++ {
		if got.Node(NodeID(i)) != want.Node(NodeID(i)) {
			t.Fatalf("%s: node %d = %+v, want %+v", name, i, got.Node(NodeID(i)), want.Node(NodeID(i)))
		}
		ga, wa := got.Adj(NodeID(i)), want.Adj(NodeID(i))
		if ga.Len() != wa.Len() {
			t.Fatalf("%s: node %d degree %d, want %d", name, i, ga.Len(), wa.Len())
		}
		for j := 0; j < wa.Len(); j++ {
			if ga.At(j) != wa.At(j) {
				t.Fatalf("%s: node %d halfedge %d = %+v, want %+v", name, i, j, ga.At(j), wa.At(j))
			}
		}
	}
	for i := 0; i < want.NumEdges(); i++ {
		if got.Edge(EdgeID(i)) != want.Edge(EdgeID(i)) {
			t.Fatalf("%s: edge %d = %+v, want %+v", name, i, got.Edge(EdgeID(i)), want.Edge(EdgeID(i)))
		}
	}
}

// misaligned returns a copy of b that starts one byte past a multiple of 8,
// which FromSections cannot alias: it takes the portable decode instead.
func misaligned(b []byte) []byte {
	buf := make([]byte, len(b)+1)
	copy(buf[1:], b)
	return buf[1:]
}

// A graph's sections must round-trip bit-identically through both read
// paths: the zero-copy alias (on a matching host) and the portable decode.
func TestSlabRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 40} {
		g := slabTestGraph(t, rng, n)
		s := g.Sections()
		aliased, err := FromSections(s)
		if err != nil {
			t.Fatalf("FromSections: %v", err)
		}
		graphsEqual(t, "aliased", aliased, g)
		if hostLayoutMatchesSlab() && aligned8(s.Nodes, s.Edges, s.Halfedges, s.AdjOff) &&
			unsafe.Pointer(&aliased.nodes[0]) != unsafe.Pointer(&s.Nodes[0]) {
			t.Error("the nodes were copied on a host whose layout matches the format")
		}

		// The heap decode of the same bytes must agree with the alias path
		// exactly, proving the format is portable.
		decoded, err := FromSections(Sections{misaligned(s.Nodes), misaligned(s.Edges), misaligned(s.Halfedges), misaligned(s.AdjOff)})
		if err != nil {
			t.Fatalf("FromSections(decode): %v", err)
		}
		graphsEqual(t, "decoded", decoded, g)
	}
}

// Images of the wrong length, or whose records contradict each other, are
// refused with ErrCorrupt.
func TestSlabRejectsCorruption(t *testing.T) {
	g := slabTestGraph(t, rand.New(rand.NewSource(7)), 8)
	for name, mutate := range map[string]func(*Sections){
		"empty":                    func(s *Sections) { *s = Sections{} },
		"node cut short":           func(s *Sections) { s.Nodes = s.Nodes[:len(s.Nodes)-1] },
		"edge cut short":           func(s *Sections) { s.Edges = s.Edges[:len(s.Edges)-8] },
		"halfedge cut short":       func(s *Sections) { s.Halfedges = s.Halfedges[:len(s.Halfedges)-4] },
		"offsets of one node more": func(s *Sections) { s.AdjOff = append(s.AdjOff, 0, 0, 0, 0) },
		"node id":                  func(s *Sections) { s.Nodes[nodeRecSize]++ },
		"edge endpoint":            func(s *Sections) { binary.LittleEndian.PutUint32(s.Edges[4:], 8) },
		"halfedge target":          func(s *Sections) { binary.LittleEndian.PutUint32(s.Halfedges[0:], 0xFFFFFFFF) },
		"offsets fall":             func(s *Sections) { binary.LittleEndian.PutUint32(s.AdjOff[4*4:], 0) },
	} {
		s := g.Sections()
		mutate(&s)
		if _, err := FromSections(s); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

func TestObjectsSlabRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := slabTestGraph(t, rng, 12)
	for _, numAttrs := range []int{0, 3} {
		objects := make([]Object, 9)
		for i := range objects {
			e := EdgeID(rng.Intn(g.NumEdges()))
			objects[i] = Object{
				ID:  ObjectID(i),
				Loc: Location{Edge: e, Offset: rng.Float64() * g.Edge(e).Length},
			}
			for a := 0; a < numAttrs; a++ {
				objects[i].Attrs = append(objects[i].Attrs, rng.Float64()*100)
			}
		}
		locs, attrs, err := ObjectSections(objects, numAttrs)
		if err != nil {
			t.Fatalf("ObjectSections: %v", err)
		}
		for _, path := range []string{"aliased", "decoded"} {
			l, a := locs, attrs
			if path == "decoded" {
				l, a = misaligned(locs), misaligned(attrs)
			}
			got, err := ObjectsFromSections(l, a, numAttrs)
			if err != nil {
				t.Fatalf("%s: ObjectsFromSections: %v", path, err)
			}
			if len(got) != len(objects) {
				t.Fatalf("%s: %d objects, want %d", path, len(got), len(objects))
			}
			for i, o := range objects {
				if got[i].ID != o.ID || got[i].Loc != o.Loc || len(got[i].Attrs) != len(o.Attrs) {
					t.Fatalf("%s: object %d = %+v, want %+v", path, i, got[i], o)
				}
				for a := range o.Attrs {
					if got[i].Attrs[a] != o.Attrs[a] {
						t.Fatalf("%s: object %d attr %d = %v, want %v", path, i, a, got[i].Attrs[a], o.Attrs[a])
					}
				}
			}
			if path == "aliased" && numAttrs > 0 && storage.HostLittleEndian() &&
				unsafe.Pointer(&got[0].Attrs[0]) != unsafe.Pointer(&attrs[0]) {
				t.Error("the attribute matrix was copied on a little-endian host")
			}
		}
	}
	// A mismatched attribute count must fail at write time.
	bad := []Object{{ID: 0, Attrs: []float64{1}}}
	if _, _, err := ObjectSections(bad, 2); err == nil {
		t.Error("ObjectSections accepted a short attribute row")
	}
}

func TestObjectsSlabRejectsCorruption(t *testing.T) {
	locs, attrs, err := ObjectSections([]Object{{ID: 0, Attrs: []float64{math.Pi}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		locs, attrs []byte
		numAttrs    int
	}{
		"locations cut short":  {locs[:len(locs)-1], attrs, 1},
		"attributes cut short": {locs, attrs[:len(attrs)-1], 1},
		"one attribute more":   {locs, attrs, 2},
		"no attributes":        {locs, attrs, 0},
		"negative count":       {locs, attrs, -1},
	} {
		if _, err := ObjectsFromSections(c.locs, c.attrs, c.numAttrs); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
