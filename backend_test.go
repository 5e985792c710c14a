package roadskyline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBackendEquivalenceFuzz pins the storage tier: over random networks,
// the in-memory engine, the engine that built the directory, and engines
// reopening that directory through file reads and through mmap must produce
// bit-identical skylines AND bit-identical Stats — every counter, the
// R-tree's node visits and the landmark bound's wins among them, for CE, EDC
// and LBC. The paper's "disk pages accessed" metric may not depend on which
// tier serves the bytes, and no counter may depend on whether the landmark
// table, the R-tree and the edge keys were computed in this process or
// mapped from the directory.
func TestBackendEquivalenceFuzz(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		tr := newFuzzTrial(t, 11000+seed)

		dir := t.TempDir()
		built, err := NewEngine(tr.n, tr.objs, EngineConfig{DiskDir: dir})
		if err != nil {
			t.Fatalf("seed %d: NewEngine(DiskDir): %v", tr.seed, err)
		}
		defer built.Close()
		if b := built.StorageBackend(); b != BackendFile {
			t.Fatalf("seed %d: built backend = %v, want file", tr.seed, b)
		}
		engines := map[string]*Engine{"mem": tr.eng, "built": built}
		reopened, err := OpenEngine(dir, EngineConfig{Backend: BackendFile})
		if err != nil {
			t.Fatalf("seed %d: OpenEngine(file): %v", tr.seed, err)
		}
		defer reopened.Close()
		engines["file"] = reopened
		mmapped, err := OpenEngine(dir, EngineConfig{Backend: BackendMmap})
		if err != nil {
			t.Fatalf("seed %d: OpenEngine(mmap): %v", tr.seed, err)
		}
		defer mmapped.Close()
		if b := mmapped.StorageBackend(); b != BackendMmap && b != BackendFile {
			t.Fatalf("seed %d: opened backend = %v", tr.seed, b)
		}
		engines["mmap"] = mmapped
		if tr.eng.StorageBackend() != BackendMem {
			t.Fatalf("seed %d: mem backend = %v", tr.seed, tr.eng.StorageBackend())
		}

		for qi, q := range tr.queries() {
			type outcome struct {
				ids   []int32
				stats Stats
			}
			var want outcome
			for _, name := range []string{"mem", "built", "file", "mmap"} {
				res, err := engines[name].Skyline(q)
				if err != nil {
					t.Fatalf("seed %d %s query %d: %v", tr.seed, name, qi, err)
				}
				// Every backend must match the bruteforce oracle...
				if err := tr.check(res, fmt.Sprintf("%s query %d (%v)", name, qi, q.Algorithm)); err != nil {
					t.Fatal(err)
				}
				got := outcome{stats: res.Stats}
				// What is timed differs from run to run; what is counted may not.
				got.stats.Total, got.stats.Initial, got.stats.Phases = 0, 0, nil
				for _, p := range res.Points {
					got.ids = append(got.ids, p.Object.ID)
				}
				// ...and reconcile exactly with the first backend: same
				// result order, same counters, physical and logical.
				if name == "mem" {
					want = got
					continue
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Fatalf("seed %d %s query %d (%v): stats %+v, mem had %+v",
						tr.seed, name, qi, q.Algorithm, got.stats, want.stats)
				}
				if len(got.ids) != len(want.ids) {
					t.Fatalf("seed %d %s query %d: %d results, mem had %d",
						tr.seed, name, qi, len(got.ids), len(want.ids))
				}
				for i := range want.ids {
					if got.ids[i] != want.ids[i] {
						t.Fatalf("seed %d %s query %d: result %d is object %d, mem had %d",
							tr.seed, name, qi, i, got.ids[i], want.ids[i])
					}
				}
			}
		}
	}
}

// TestOpenEngineRoundTrip covers the surface OpenEngine reconstructs:
// network accessors, objects and metadata must match the building engine.
func TestOpenEngineRoundTrip(t *testing.T) {
	tr := newFuzzTrial(t, 12345)
	dir := t.TempDir()
	built, err := NewEngine(tr.n, tr.objs, EngineConfig{DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	opened, err := OpenEngine(dir, EngineConfig{})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	defer opened.Close()
	if opened.StorageBackend() != BackendFile {
		t.Errorf("default open backend = %v, want file", opened.StorageBackend())
	}
	bn, on := built.Network(), opened.Network()
	if on.NumNodes() != bn.NumNodes() || on.NumEdges() != bn.NumEdges() {
		t.Fatalf("opened network %d/%d, want %d/%d", on.NumNodes(), on.NumEdges(), bn.NumNodes(), bn.NumEdges())
	}
	for i := 0; i < bn.NumNodes(); i++ {
		if on.NodePoint(int32(i)) != bn.NodePoint(int32(i)) {
			t.Fatalf("node %d moved", i)
		}
	}
	bo, oo := built.Objects(), opened.Objects()
	if len(bo) != len(oo) {
		t.Fatalf("%d objects, want %d", len(oo), len(bo))
	}
	for i := range bo {
		if oo[i].ID != bo[i].ID || oo[i].Loc != bo[i].Loc || len(oo[i].Attrs) != len(bo[i].Attrs) {
			t.Fatalf("object %d = %+v, want %+v", i, oo[i], bo[i])
		}
		for a := range bo[i].Attrs {
			if oo[i].Attrs[a] != bo[i].Attrs[a] {
				t.Fatalf("object %d attr %d differs", i, a)
			}
		}
	}
	// Pools over an opened engine report the backend.
	pool, err := NewPool(opened, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if m := pool.PoolMetrics(); m.StorageBackend != "file" {
		t.Errorf("pool reports backend %q, want file", m.StorageBackend)
	}

	if _, err := OpenEngine(t.TempDir(), EngineConfig{}); err == nil {
		t.Error("OpenEngine of an empty directory succeeded")
	}

	// The two ways a directory that exists can be refused, by their public
	// names: asked for a table it was not built with, and damaged.
	if _, err := OpenEngine(dir, EngineConfig{Landmarks: 3}); !errors.Is(err, ErrIncompatible) {
		t.Errorf("OpenEngine asking for 3 landmarks of a directory built with 8: %v, want ErrIncompatible", err)
	}
	if eng, err := OpenEngine(dir, EngineConfig{Landmarks: -1}); err != nil {
		t.Errorf("OpenEngine(Landmarks: -1): %v", err)
	} else {
		// A negative count leaves the table unread: A* never evaluates it.
		res, err := eng.Skyline(Query{Points: tr.pts, Algorithm: LBCAlg})
		if err != nil {
			t.Errorf("OpenEngine(Landmarks: -1) query: %v", err)
		} else if st := res.Stats; st.LandmarkWins+st.EuclidWins != 0 {
			t.Errorf("OpenEngine(Landmarks: -1) evaluated the landmark bound %d+%d times", st.LandmarkWins, st.EuclidWins)
		}
		eng.Close()
	}
	// (Damage a directory nothing has mapped: the engines above still do.)
	damaged := t.TempDir()
	again, err := NewEngine(tr.n, tr.objs, EngineConfig{DiskDir: damaged})
	if err != nil {
		t.Fatal(err)
	}
	again.Close()
	if err := os.Truncate(filepath.Join(damaged, "network.slab"), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEngine(damaged, EngineConfig{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("OpenEngine of a directory with a truncated network.slab: %v, want ErrCorrupt", err)
	}
}
