package middlelayer

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"roadskyline/internal/graph"
	"roadskyline/internal/storage"
)

// span is the edge length the tests pass: longer than any offset they place.
const span = math.MaxFloat64

func build(t *testing.T, objs []graph.Object) *Layer {
	t.Helper()
	l, err := Build(objs, storage.NewMemFile(), storage.NewMemFile(), storage.DefaultBufferBytes, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return l
}

func TestEmptyLayer(t *testing.T) {
	l := build(t, nil)
	if l.NumObjects() != 0 {
		t.Fatalf("NumObjects = %d", l.NumObjects())
	}
	out, err := l.ObjectsOn(0, span, nil)
	if err != nil {
		t.Fatalf("ObjectsOn: %v", err)
	}
	if len(out) != 0 {
		t.Errorf("empty layer returned %d objects", len(out))
	}
}

func TestObjectsOnBasic(t *testing.T) {
	objs := []graph.Object{
		{ID: 0, Loc: graph.Location{Edge: 5, Offset: 0.3}},
		{ID: 1, Loc: graph.Location{Edge: 2, Offset: 0.1}},
		{ID: 2, Loc: graph.Location{Edge: 5, Offset: 0.1}},
		{ID: 3, Loc: graph.Location{Edge: 9, Offset: 0.7}},
	}
	l := build(t, objs)
	if l.NumObjects() != 4 {
		t.Fatalf("NumObjects = %d", l.NumObjects())
	}
	out, err := l.ObjectsOn(5, span, nil)
	if err != nil {
		t.Fatalf("ObjectsOn: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("edge 5 has %d objects, want 2", len(out))
	}
	// Grouped entries are offset-sorted.
	if out[0].ID != 2 || out[0].Offset != 0.1 || out[1].ID != 0 || out[1].Offset != 0.3 {
		t.Errorf("edge 5 objects = %+v", out)
	}
	// Edge with no objects.
	out, err = l.ObjectsOn(7, span, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("edge 7: %v, %d objects", err, len(out))
	}
	// Append semantics.
	out, _ = l.ObjectsOn(2, span, out[:0])
	out, _ = l.ObjectsOn(9, span, out)
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 3 {
		t.Errorf("append semantics broken: %+v", out)
	}
}

// A record that is not a point of its edge is corrupt: the offset must lie
// in [0, length], and NaN does not.
func TestObjectsOnOffsetOutsideEdge(t *testing.T) {
	l := build(t, []graph.Object{{ID: 0, Loc: graph.Location{Edge: 5, Offset: 0.3}}})
	if out, err := l.ObjectsOn(5, 0.3, nil); err != nil || len(out) != 1 {
		t.Fatalf("offset at the far end: %v, %+v", err, out)
	}
	for _, length := range []float64{0.2, math.NaN(), -1} {
		if _, err := l.ObjectsOn(5, length, nil); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("length %v: error %v, want ErrCorrupt", length, err)
		}
	}
}

// Many objects on one edge must span record pages correctly.
func TestObjectsSpanningPages(t *testing.T) {
	const n = 1000 // > recsPerPage
	objs := make([]graph.Object, n+2)
	for i := 0; i < n; i++ {
		objs[i] = graph.Object{ID: graph.ObjectID(i), Loc: graph.Location{Edge: 3, Offset: float64(i)}}
	}
	objs[n] = graph.Object{ID: graph.ObjectID(n), Loc: graph.Location{Edge: 1, Offset: 0}}
	objs[n+1] = graph.Object{ID: graph.ObjectID(n + 1), Loc: graph.Location{Edge: 8, Offset: 0}}
	l := build(t, objs)
	out, err := l.ObjectsOn(3, span, nil)
	if err != nil {
		t.Fatalf("ObjectsOn: %v", err)
	}
	if len(out) != n {
		t.Fatalf("got %d objects, want %d", len(out), n)
	}
	for i, r := range out {
		if r.Offset != float64(i) {
			t.Fatalf("object %d has offset %v", i, r.Offset)
		}
	}
	// Neighbors unharmed.
	if out, _ := l.ObjectsOn(1, span, nil); len(out) != 1 || out[0].ID != graph.ObjectID(n) {
		t.Errorf("edge 1 wrong: %+v", out)
	}
	if out, _ := l.ObjectsOn(8, span, nil); len(out) != 1 || out[0].ID != graph.ObjectID(n+1) {
		t.Errorf("edge 8 wrong: %+v", out)
	}
}

// Randomized model check across many edges.
func TestObjectsOnModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const numEdges = 500
	var objs []graph.Object
	model := map[graph.EdgeID][]ObjRef{}
	for i := 0; i < 3000; i++ {
		e := graph.EdgeID(rng.Intn(numEdges))
		o := graph.Object{ID: graph.ObjectID(i), Loc: graph.Location{Edge: e, Offset: rng.Float64()}}
		objs = append(objs, o)
		model[e] = append(model[e], ObjRef{ID: o.ID, Offset: o.Loc.Offset})
	}
	for e := range model {
		sort.Slice(model[e], func(i, j int) bool { return model[e][i].Offset < model[e][j].Offset })
	}
	l := build(t, objs)
	var buf []ObjRef
	for e := graph.EdgeID(0); e < numEdges; e++ {
		var err error
		buf, err = l.ObjectsOn(e, span, buf[:0])
		if err != nil {
			t.Fatalf("ObjectsOn(%d): %v", e, err)
		}
		want := model[e]
		if len(buf) != len(want) {
			t.Fatalf("edge %d: %d objects, want %d", e, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("edge %d object %d: %+v, want %+v", e, i, buf[i], want[i])
			}
		}
	}
}

func TestStats(t *testing.T) {
	objs := []graph.Object{{ID: 0, Loc: graph.Location{Edge: 1, Offset: 0.5}}}
	l := build(t, objs)
	l.ResetStats()
	l.ObjectsOn(1, span, nil)
	st := l.Stats()
	if st.Gets == 0 {
		t.Error("lookup performed no page gets")
	}
	if st.Misses == 0 {
		t.Error("cold lookup faulted nothing")
	}
	l.ResetStats()
	l.ObjectsOn(1, span, nil)
	if st := l.Stats(); st.Misses != 0 {
		t.Errorf("warm lookup faulted %d pages", st.Misses)
	}
	l.InvalidateCaches()
	l.ObjectsOn(1, span, nil)
	if st := l.Stats(); st.Misses == 0 {
		t.Error("invalidated caches still warm")
	}
}

// A layer built on real files must be reopenable from its Meta over the
// same page files, serving identical lookups.
func TestMetaReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const numEdges, numObjs = 60, 500
	objs := make([]graph.Object, numObjs)
	for i := range objs {
		objs[i] = graph.Object{
			ID:  graph.ObjectID(i),
			Loc: graph.Location{Edge: graph.EdgeID(rng.Intn(numEdges)), Offset: rng.Float64()},
		}
	}
	dir := t.TempDir()
	treePath := filepath.Join(dir, "index.pages")
	recPath := filepath.Join(dir, "records.pages")
	treeFile, err := storage.CreateOSFile(treePath)
	if err != nil {
		t.Fatal(err)
	}
	recFile, err := storage.CreateOSFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]int64, numEdges+5) // non-identity keys, probed past the last object edge
	for e := range key {
		key[e] = int64(e)*7 + 3
	}
	built, err := Build(objs, treeFile, recFile, storage.DefaultBufferBytes, key)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	meta := built.Meta()
	// Capture expected lookups before closing the build-side files.
	wantOn := make([][]ObjRef, numEdges+5)
	for e := range wantOn {
		refs, err := built.ObjectsOn(graph.EdgeID(e), span, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantOn[e] = refs
	}
	treeFile.Close()
	recFile.Close()

	for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
		tf, _, err := storage.Open(treePath, backend)
		if err != nil {
			t.Fatal(err)
		}
		rf, actual, err := storage.Open(recPath, backend)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(tf, rf, storage.DefaultBufferBytes, meta, key)
		if err != nil {
			t.Fatalf("Open via %v: %v", actual, err)
		}
		if l.NumObjects() != numObjs {
			t.Fatalf("%v: NumObjects = %d, want %d", actual, l.NumObjects(), numObjs)
		}
		var got []ObjRef
		for e := 0; e < numEdges+5; e++ {
			var err error
			got, err = l.ObjectsOn(graph.EdgeID(e), span, got[:0])
			if err != nil {
				t.Fatalf("%v: ObjectsOn(%d): %v", actual, e, err)
			}
			want := wantOn[e]
			if len(got) != len(want) {
				t.Fatalf("%v: edge %d has %d objects, want %d", actual, e, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: edge %d object %d = %+v, want %+v", actual, e, i, got[i], want[i])
				}
			}
		}
		tf.Close()
		rf.Close()
	}
}
