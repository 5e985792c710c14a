package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/rtree"
	"roadskyline/internal/slab"
	"roadskyline/internal/storage"
	"roadskyline/internal/testnet"
)

// netDir is one pristine built directory that the corruption tests copy and
// damage.
type netDir struct {
	dir   string
	g     *graph.Graph
	objs  []graph.Object
	files map[string][]byte
}

func buildNetDir(t testing.TB, seed int64, nodes, objects, attrs int) *netDir {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nd := &netDir{dir: t.TempDir(), files: map[string][]byte{}}
	nd.g = testnet.RandomGraph(rng, nodes)
	nd.objs = testnet.RandomObjects(rng, nd.g, objects, attrs)
	env, err := NewEnv(nd.g, nd.objs, EnvConfig{Dir: nd.dir})
	if err != nil {
		t.Fatalf("NewEnv(Dir): %v", err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(nd.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(nd.dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		nd.files[e.Name()] = raw
	}
	return nd
}

// copyTo writes the pristine files into dir, with the given replacements.
func (nd *netDir) copyTo(t testing.TB, dir string, replace map[string][]byte) {
	t.Helper()
	for name, raw := range nd.files {
		if r, ok := replace[name]; ok {
			raw = r
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mappingsOf counts the process's memory mappings of files under dir
// (Linux; -1 where /proc is not there to ask).
func mappingsOf(dir string) int {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	return strings.Count(string(maps), dir+string(filepath.Separator))
}

// mustRefuse opens a damaged copy of nd under both backends and holds
// OpenEnv to the contract: an error wrapping want, no Env, no panic, and
// every mapping it had made on the way released — after which the pristine
// files open from the same directory and the directory can be removed.
func (nd *netDir) mustRefuse(t *testing.T, name string, want error, replace map[string][]byte) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		dir := t.TempDir()
		nd.copyTo(t, dir, replace)
		for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v: OpenEnv panicked: %v", backend, r)
					}
				}()
				env, err := OpenEnv(dir, EnvConfig{Backend: backend})
				if env != nil {
					env.Close()
					t.Fatalf("%v: OpenEnv returned an Env (err %v)", backend, err)
				}
				if !errors.Is(err, want) {
					t.Fatalf("%v: OpenEnv error %q does not wrap %q", backend, err, want)
				}
			}()
			if n := mappingsOf(dir); n > 0 {
				t.Fatalf("%v: %d mappings of the directory survive the failed open", backend, n)
			}
		}
		nd.copyTo(t, dir, nil)
		env, err := OpenEnv(dir, EnvConfig{Backend: storage.BackendMmap})
		if err != nil {
			t.Fatalf("reopening the restored directory: %v", err)
		}
		if err := env.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	})
}

// manifest returns the pristine manifest with mutate applied — its checksum
// left stale, or recomputed so the change reaches the checks behind it.
func (nd *netDir) manifest(t testing.TB, reseal bool, mutate func(*manifest)) []byte {
	t.Helper()
	m, err := readManifest(nd.files[fileManifest])
	if err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	var raw []byte
	if reseal {
		raw, err = m.seal()
	} else {
		raw, err = json.MarshalIndent(m, "", "  ") // m.CRC is still the pristine file's
	}
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// derived returns the pristine derived.slab with mutate applied to its
// sections and every checksum recomputed (slab.Write seals what it is given).
func (nd *netDir) derived(t testing.TB, mutate func([]slab.Section) []slab.Section) []byte {
	t.Helper()
	secs, err := slab.Parse(nd.files[fileDerivedSlab])
	if err != nil {
		t.Fatal(err)
	}
	for i := range secs {
		secs[i].Data = bytes.Clone(secs[i].Data)
	}
	path := filepath.Join(t.TempDir(), "derived")
	if err := slab.Write(path, mutate(secs)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func sectionOf(secs []slab.Section, tag uint32) *slab.Section {
	for i := range secs {
		if secs[i].Tag == tag {
			return &secs[i]
		}
	}
	panic(fmt.Sprintf("no section %d", tag))
}

var sectionNames = map[uint32]string{
	tagEdgeKeys: "keys", tagLeafOrder: "leaforder", tagLandmarkNodes: "landmarknodes", tagLandmarkDists: "landmarkdists",
}

// The corruption table. For every file of a built directory: truncation to
// nothing, to one byte short of its header, to the middle of its payload and
// to one byte short of its length; every count, offset and length field
// overwritten with 0, all ones and its value plus one; for derived.slab one
// flipped payload byte per section; for the two checksummed files the same
// overwrites again with the checksum recomputed, so the range and
// cross-file checks behind it are on trial too. Each case must be refused
// (see mustRefuse) with ErrCorrupt — or ErrIncompatible where the field is a
// format version.
//
// Seeded mutations: dropping Section.Verify from core.section fails
// derived.slab/flip/keys and /landmarkdists by name; dropping the manifest's
// checksum comparison fails the manifest.json/stale/* cases.
func TestOpenEnvCorruption(t *testing.T) {
	nd := buildNetDir(t, 2601, 400, 300, 2)

	headers := map[string]int{
		fileGraphSlab: 72, fileObjectsSlab: 32, fileAdjDir: 64, fileDerivedSlab: 24,
		fileAdjPages: 0, fileTreePages: 0, fileRecPages: 0, fileManifest: 0,
	}
	if len(headers) != len(nd.files) {
		t.Fatalf("directory holds %d files, the table knows %d: extend it", len(nd.files), len(headers))
	}
	for name, raw := range nd.files {
		sizes := []int{0, len(raw) / 2, len(raw) - 1}
		if h := headers[name]; h > 0 {
			sizes = append(sizes, h-1)
		} else if aligned := len(raw) / 2 &^ (storage.PageSize - 1); aligned > 0 {
			sizes = append(sizes, aligned) // a page file cut at a page boundary
		}
		for _, n := range sizes {
			nd.mustRefuse(t, fmt.Sprintf("%s/truncate/%d", name, n), ErrCorrupt, map[string][]byte{name: raw[:n]})
		}
	}

	// Binary header fields: offset and width of every count, offset, length
	// and version.
	type field struct {
		name string
		off  int
		size int
	}
	fields := map[string][]field{
		fileGraphSlab:   {{"version", 8, 4}, {"nodes", 16, 8}, {"edges", 24, 8}, {"halfedges", 32, 8}},
		fileObjectsSlab: {{"version", 8, 4}, {"objects", 16, 8}, {"attrs", 24, 8}},
		fileAdjDir:      {{"version", 8, 4}, {"nodes", 16, 8}, {"pages", 24, 8}},
		fileDerivedSlab: {{"version", 8, 4}, {"count", 12, 4}},
	}
	secs, err := slab.Parse(nd.files[fileDerivedSlab])
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range secs {
		e := 24 + 48*i
		fields[fileDerivedSlab] = append(fields[fileDerivedSlab],
			field{sectionNames[s.Tag] + ".offset", e + 8, 8}, field{sectionNames[s.Tag] + ".length", e + 16, 8},
			field{sectionNames[s.Tag] + ".param0", e + 24, 8}, field{sectionNames[s.Tag] + ".param1", e + 32, 8})
	}
	for name, fs := range fields {
		for _, f := range fs {
			raw := nd.files[name]
			old := binary.LittleEndian.Uint64(raw[f.off:])
			if f.size == 4 {
				old = uint64(binary.LittleEndian.Uint32(raw[f.off:]))
			}
			for _, v := range []uint64{0, math.MaxUint64, old + 1} {
				if v == old || f.size == 4 && uint32(v) == uint32(old) {
					continue
				}
				img := bytes.Clone(raw)
				if f.size == 4 {
					binary.LittleEndian.PutUint32(img[f.off:], uint32(v))
				} else {
					binary.LittleEndian.PutUint64(img[f.off:], v)
				}
				nd.mustRefuse(t, fmt.Sprintf("%s/%s=%d", name, f.name, v), ErrCorrupt, map[string][]byte{name: img})
			}
		}
	}

	// One flipped byte in the middle of each derived section.
	for _, s := range secs {
		img := bytes.Clone(nd.files[fileDerivedSlab])
		off := int(uintptr(len(s.Data)/2)) + bytes.Index(img, s.Data)
		if s.Tag == tagLandmarkDists {
			// Flip a low mantissa bit: nothing but the checksum can tell.
			off = off &^ 7
		}
		img[off] ^= 0x01
		nd.mustRefuse(t, "derived.slab/flip/"+sectionNames[s.Tag], ErrCorrupt, map[string][]byte{fileDerivedSlab: img})
	}

	// derived.slab again, checksums recomputed: parameters the decoders hold
	// to the graph, the objects and the manifest, and sections gone missing.
	type param struct {
		tag  uint32
		p    int
		want map[uint64]error // by overwritten value; absent = ErrCorrupt
	}
	for _, p := range []param{
		{tagEdgeKeys, 0, map[uint64]error{0: ErrIncompatible, math.MaxUint64: ErrIncompatible, edgeKeyVersion + 1: ErrIncompatible}},
		{tagEdgeKeys, 1, nil},
		{tagLeafOrder, 0, nil},
		{tagLeafOrder, 1, nil},
		{tagLandmarkNodes, 0, nil},
		{tagLandmarkNodes, 1, nil},
		{tagLandmarkNodes, 2, nil},
		{tagLandmarkDists, 0, nil},
		{tagLandmarkDists, 1, nil},
	} {
		old := sectionOf(secs, p.tag).Params[p.p]
		for _, v := range []uint64{0, math.MaxUint64, old + 1} {
			if v == old {
				continue
			}
			if p.tag == tagLandmarkNodes && p.p == 2 && v == 0 {
				continue // "not finite" over a finite table is the slow path to the same bounds
			}
			want := p.want[v]
			if want == nil {
				want = ErrCorrupt
			}
			img := nd.derived(t, func(secs []slab.Section) []slab.Section {
				sectionOf(secs, p.tag).Params[p.p] = v
				return secs
			})
			nd.mustRefuse(t, fmt.Sprintf("derived.slab/resealed/%s.param%d=%d", sectionNames[p.tag], p.p, v), want,
				map[string][]byte{fileDerivedSlab: img})
		}
	}
	for _, drop := range [][]uint32{{tagEdgeKeys}, {tagLeafOrder}, {tagLandmarkNodes}, {tagLandmarkDists}, {tagLandmarkNodes, tagLandmarkDists}} {
		img := nd.derived(t, func(secs []slab.Section) []slab.Section {
			var kept []slab.Section
			for _, s := range secs {
				if s.Tag != drop[0] && s.Tag != drop[len(drop)-1] {
					kept = append(kept, s)
				}
			}
			return kept
		})
		nd.mustRefuse(t, fmt.Sprintf("derived.slab/resealed/without%v", drop), ErrCorrupt, map[string][]byte{fileDerivedSlab: img})
	}

	// manifest.json: every number, first with the checksum left stale, then
	// — where another file can contradict the new value — resealed.
	type mfield struct {
		name     string
		ptr      func(*manifest) *int
		resealed map[int]error // values another check must catch once the checksum agrees
	}
	pristine, err := readManifest(nd.files[fileManifest])
	if err != nil {
		t.Fatal(err)
	}
	const maxInt = math.MaxInt32
	both := func(err error, vals ...int) map[int]error {
		m := map[int]error{}
		for _, v := range vals {
			m[v] = err
		}
		return m
	}
	tree := &pristine.Layer.Tree
	for _, f := range []mfield{
		{"version", func(m *manifest) *int { return &m.Version }, both(ErrIncompatible, 0, maxInt, manifestVersion+1, 1)},
		{"numAttrs", func(m *manifest) *int { return &m.NumAttrs }, both(ErrCorrupt, 0, maxInt, pristine.NumAttrs+1)},
		{"numObjects", func(m *manifest) *int { return &m.Layer.NumObjects }, both(ErrCorrupt, 0, maxInt, pristine.Layer.NumObjects+1)},
		{"tree.height", func(m *manifest) *int { return &m.Layer.Tree.Height }, both(ErrCorrupt, 0)},
		{"tree.size", func(m *manifest) *int { return &m.Layer.Tree.Size }, nil},
		{"tree.valSize", func(m *manifest) *int { return &m.Layer.Tree.ValSize }, both(ErrCorrupt, 0, maxInt, tree.ValSize+1)},
		{"tree.pages", func(m *manifest) *int { return &m.Layer.Tree.Pages }, both(ErrCorrupt, 0, maxInt, tree.Pages+1)},
		{"landmarks", func(m *manifest) *int { return &m.Landmarks }, both(ErrCorrupt, 0, maxInt, pristine.Landmarks+1)},
		{"rtreeFanout", func(m *manifest) *int { return &m.RTreeFanout }, both(ErrCorrupt, 0, maxInt, pristine.RTreeFanout+1)},
		{"edgeKeyVersion", func(m *manifest) *int { return &m.EdgeKeyVersion }, both(ErrIncompatible, 0, maxInt, edgeKeyVersion+1)},
	} {
		old := *f.ptr(&pristine)
		for _, v := range []int{0, maxInt, old + 1, 1} {
			if v == old {
				continue
			}
			set := func(m *manifest) { *f.ptr(m) = v }
			want := ErrCorrupt
			if f.name == "version" {
				want = ErrIncompatible // read before the checksum: a v1 manifest never had one
			}
			nd.mustRefuse(t, fmt.Sprintf("manifest.json/stale/%s=%d", f.name, v), want,
				map[string][]byte{fileManifest: nd.manifest(t, false, set)})
			if want, ok := f.resealed[v]; ok {
				nd.mustRefuse(t, fmt.Sprintf("manifest.json/resealed/%s=%d", f.name, v), want,
					map[string][]byte{fileManifest: nd.manifest(t, true, set)})
			}
		}
	}
	for _, v := range []int{-1, maxInt, tree.Pages} {
		set := func(m *manifest) { m.Layer.Tree.Root = storage.PageID(v) }
		nd.mustRefuse(t, fmt.Sprintf("manifest.json/stale/tree.root=%d", v), ErrCorrupt, map[string][]byte{fileManifest: nd.manifest(t, false, set)})
		nd.mustRefuse(t, fmt.Sprintf("manifest.json/resealed/tree.root=%d", v), ErrCorrupt, map[string][]byte{fileManifest: nd.manifest(t, true, set)})
	}
	nd.mustRefuse(t, "manifest.json/not json", ErrCorrupt, map[string][]byte{fileManifest: []byte("RSKGRAF1")})
	nd.mustRefuse(t, "manifest.json/reformatted", ErrCorrupt, map[string][]byte{fileManifest: append(bytes.Clone(nd.files[fileManifest]), '\n')})
}

// Adjacency records are page bytes, which OpenEnv does not read, so a record
// that lies about itself must fail the query that reads it with ErrCorrupt,
// not panic it. Every record of adjacency.pages is damaged the same way, so
// whichever node a query expands first trips it: a degree that runs off the
// page, and a first entry naming a neighbour or an edge out of range. CE, EDC
// and LBC each run on the file and mmap backends. An adjacency.dir offset
// that leaves no room for a record's header is refused at open.
//
// Seeded mutations: dropping the degree's extent check from
// diskgraph.Store.Neighbors fails degree; dropping its neighbour-id check
// fails neighbour.
func TestQueryCorruptAdjacency(t *testing.T) {
	nd := buildNetDir(t, 2604, 400, 300, 0)
	adjDir := nd.files[fileAdjDir]
	// records applies put to every record of the adjacency pages, found
	// through the directory (64-byte header, then page u32 and offset u16
	// per node).
	records := func(put func(rec []byte)) map[string][]byte {
		img := bytes.Clone(nd.files[fileAdjPages])
		for i := range nd.g.NumNodes() {
			e := adjDir[64+6*i:]
			page, off := binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint16(e[4:])
			put(img[int(page)*storage.PageSize+int(off):])
		}
		return map[string][]byte{fileAdjPages: img}
	}
	// firstEntry overwrites the u32 at byte at of a record's first entry.
	firstEntry := func(at int, v uint32) func([]byte) {
		return func(rec []byte) {
			if binary.LittleEndian.Uint16(rec[16:]) > 0 {
				binary.LittleEndian.PutUint32(rec[18+at:], v)
			}
		}
	}
	rng := rand.New(rand.NewSource(2604))
	q := Query{Points: testnet.RandomLocations(rng, nd.g, 3)}
	for _, c := range []struct {
		name    string
		replace map[string][]byte
	}{
		{"degree", records(func(rec []byte) { binary.LittleEndian.PutUint16(rec[16:], 0xFFFF) })},
		{"neighbour", records(firstEntry(0, 0x7fff0000))},
		{"edge", records(firstEntry(20, 0x7fff0000))},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			nd.copyTo(t, dir, c.replace)
			for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
				env, err := OpenEnv(dir, EnvConfig{Backend: backend})
				if err != nil {
					t.Fatalf("%v: OpenEnv: %v", backend, err)
				}
				for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%v %v: the query panicked: %v", backend, alg, r)
							}
						}()
						if _, err := Run(context.Background(), env, q, alg, Options{ColdCache: true}); !errors.Is(err, ErrCorrupt) {
							t.Errorf("%v %v: error %v, want ErrCorrupt", backend, alg, err)
						}
					}()
				}
				if err := env.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	img := bytes.Clone(adjDir)
	binary.LittleEndian.PutUint16(img[64+6*7+4:], storage.PageSize-2)
	nd.mustRefuse(t, "offset", ErrCorrupt, map[string][]byte{fileAdjDir: img})
}

// What OpenEnv validates beyond sizes and checksums, each on a file whose
// sizes and checksums are all in order: the bytes are wrong only in what
// they say.
//
// Seeded mutations: skipping validateObjects in OpenEnv fails
// TestOpenEnvRejects/objects/* (with an index-out-of-range panic the test
// reports); skipping the seen[] test in openObjTree fails
// TestOpenEnvRejects/leaforder/twice; skipping graph.checkSlab fails
// TestOpenEnvRejects/graph/*.
func TestOpenEnvRejects(t *testing.T) {
	nd := buildNetDir(t, 2602, 300, 200, 1)
	patch := func(file string, off int, put func([]byte)) map[string][]byte {
		img := bytes.Clone(nd.files[file])
		put(img[off:])
		return map[string][]byte{file: img}
	}
	u32 := func(v uint32) func([]byte) { return func(b []byte) { binary.LittleEndian.PutUint32(b, v) } }
	f64 := func(v float64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
	}
	nn, ne, nh := nd.g.NumNodes(), nd.g.NumEdges(), 2*nd.g.NumEdges()

	// objects.slab: header 32, then (edge i32, pad, offset f64) per object.
	const obj7 = 32 + 7*16
	nd.mustRefuse(t, "objects/edge past the graph", ErrCorrupt, patch(fileObjectsSlab, obj7, u32(uint32(ne))))
	nd.mustRefuse(t, "objects/negative edge", ErrCorrupt, patch(fileObjectsSlab, obj7, u32(0xFFFFFFFF)))
	nd.mustRefuse(t, "objects/offset past the edge", ErrCorrupt, patch(fileObjectsSlab, obj7+8, f64(1e9)))
	nd.mustRefuse(t, "objects/negative offset", ErrCorrupt, patch(fileObjectsSlab, obj7+8, f64(-0.5)))
	nd.mustRefuse(t, "objects/NaN offset", ErrCorrupt, patch(fileObjectsSlab, obj7+8, f64(math.NaN())))

	// graph.slab: header 72, nodes x24, edges x24, halfedges x16, adjOff x4.
	nodes, edges := 72, 72+nn*24
	halves := edges + ne*24
	adjOff := halves + nh*16
	nd.mustRefuse(t, "graph/node id", ErrCorrupt, patch(fileGraphSlab, nodes+5*24, u32(6)))
	nd.mustRefuse(t, "graph/edge id", ErrCorrupt, patch(fileGraphSlab, edges+5*24, u32(6)))
	nd.mustRefuse(t, "graph/edge endpoint past the nodes", ErrCorrupt, patch(fileGraphSlab, edges+5*24+4, u32(uint32(nn))))
	nd.mustRefuse(t, "graph/negative edge endpoint", ErrCorrupt, patch(fileGraphSlab, edges+5*24+8, u32(0x80000000)))
	nd.mustRefuse(t, "graph/halfedge target past the nodes", ErrCorrupt, patch(fileGraphSlab, halves+9*16, u32(uint32(nn))))
	nd.mustRefuse(t, "graph/halfedge edge past the edges", ErrCorrupt, patch(fileGraphSlab, halves+9*16+4, u32(uint32(ne))))
	nd.mustRefuse(t, "graph/adjacency offsets start above zero", ErrCorrupt, patch(fileGraphSlab, adjOff, u32(1)))
	nd.mustRefuse(t, "graph/adjacency offsets fall", ErrCorrupt, patch(fileGraphSlab, adjOff+40*4, u32(0)))
	nd.mustRefuse(t, "graph/adjacency offsets negative", ErrCorrupt, patch(fileGraphSlab, adjOff+40*4, u32(0xFFFFFFF0)))
	nd.mustRefuse(t, "graph/adjacency offsets end early", ErrCorrupt, patch(fileGraphSlab, adjOff+nn*4, u32(uint32(nh-1))))
	nd.mustRefuse(t, "graph/adjacency offsets end late", ErrCorrupt, patch(fileGraphSlab, adjOff+nn*4, u32(uint32(nh+1))))

	// derived.slab, resealed: ids that are not a permutation, landmark nodes
	// that are not nodes.
	leaf := func(i int, v uint32) map[string][]byte {
		return map[string][]byte{fileDerivedSlab: nd.derived(t, func(secs []slab.Section) []slab.Section {
			binary.LittleEndian.PutUint32(sectionOf(secs, tagLeafOrder).Data[4*i:], v)
			return secs
		})}
	}
	order := sectionOf(mustParse(t, nd.files[fileDerivedSlab]), tagLeafOrder).Data
	nd.mustRefuse(t, "leaforder/twice", ErrCorrupt, leaf(3, binary.LittleEndian.Uint32(order[4*90:])))
	nd.mustRefuse(t, "leaforder/past the objects", ErrCorrupt, leaf(3, uint32(len(nd.objs))))
	nd.mustRefuse(t, "leaforder/negative", ErrCorrupt, leaf(3, 0xFFFFFFFF))
	for name, v := range map[string]uint32{"past the nodes": uint32(nn), "negative": 0xFFFFFFFE} {
		nd.mustRefuse(t, "landmarknodes/"+name, ErrCorrupt, map[string][]byte{fileDerivedSlab: nd.derived(t, func(secs []slab.Section) []slab.Section {
			binary.LittleEndian.PutUint32(sectionOf(secs, tagLandmarkNodes).Data[4:], v)
			return secs
		})})
	}

	// Files of two intact directories over different graphs: each passes its
	// own checks, together they do not fit.
	other := buildNetDir(t, 2603, 280, 200, 1)
	nd.mustRefuse(t, "adjacency of another graph", ErrCorrupt, map[string][]byte{
		fileAdjDir: other.files[fileAdjDir], fileAdjPages: other.files[fileAdjPages]})
	nd.mustRefuse(t, "graph of another network", ErrCorrupt, map[string][]byte{fileGraphSlab: other.files[fileGraphSlab]})
	nd.mustRefuse(t, "derived slab of another network", ErrCorrupt, map[string][]byte{fileDerivedSlab: other.files[fileDerivedSlab]})
}

func mustParse(t testing.TB, img []byte) []slab.Section {
	t.Helper()
	secs, err := slab.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

// The open-time rules for what the caller asks against what the directory
// holds: zero is "what is there", negative Landmarks leaves the table
// unread, a positive value that disagrees is ErrIncompatible, a version-1
// directory is ErrIncompatible — and nothing is ever rebuilt to please.
func TestOpenEnvConfigRules(t *testing.T) {
	nd := buildNetDir(t, 2604, 200, 120, 0)
	open := func(dir string, cfg EnvConfig) (*Env, error) {
		env, err := OpenEnv(dir, cfg)
		if env != nil {
			t.Cleanup(func() { env.Close() })
		}
		return env, err
	}
	for _, c := range []struct {
		name      string
		cfg       EnvConfig
		landmarks int // expected K; -1 = no table
		want      error
	}{
		{"defaults", EnvConfig{}, DefaultLandmarks, nil},
		{"explicit and equal", EnvConfig{Landmarks: DefaultLandmarks, RTreeFanout: 100}, DefaultLandmarks, nil},
		{"landmarks unread", EnvConfig{Landmarks: -1}, -1, nil},
		{"other landmark count", EnvConfig{Landmarks: 4}, 0, ErrIncompatible},
		{"other fanout", EnvConfig{RTreeFanout: 16}, 0, ErrIncompatible},
	} {
		env, err := open(nd.dir, c.cfg)
		if !errors.Is(err, c.want) || (err == nil) != (env != nil) {
			t.Fatalf("%s: OpenEnv = %v, %v; want error %v", c.name, env, err, c.want)
		}
		if env == nil {
			continue
		}
		if got := env.Landmarks; (got == nil) != (c.landmarks < 0) || got != nil && got.K() != c.landmarks {
			t.Errorf("%s: landmark table %v, want K=%d", c.name, got, c.landmarks)
		}
	}

	// A directory built without landmarks holds none: zero opens it without,
	// asking for some is refused.
	bare := t.TempDir()
	built, err := NewEnv(nd.g, nd.objs, EnvConfig{Dir: bare, Landmarks: -1, RTreeFanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	if built.Landmarks != nil || built.ObjTree.Height() < 2 {
		t.Fatalf("built without landmarks at fanout 16: table %v, height %d", built.Landmarks, built.ObjTree.Height())
	}
	built.Close()
	if env, err := open(bare, EnvConfig{}); err != nil || env.Landmarks != nil {
		t.Fatalf("open of a landmark-free directory: %v, table %v", err, env.Landmarks)
	}
	if _, err := open(bare, EnvConfig{Landmarks: DefaultLandmarks}); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("asking a landmark-free directory for landmarks: %v", err)
	}
	if _, err := open(bare, EnvConfig{RTreeFanout: 100}); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("asking a fanout-16 directory for 100: %v", err)
	}

	// A graph without nodes has no table to keep, whatever was asked for:
	// its directory builds and reopens all the same.
	empty := t.TempDir()
	none, err := NewEnv(graph.NewBuilder(0, 0).MustBuild(), nil, EnvConfig{Dir: empty, Landmarks: 3})
	if err != nil || none.Landmarks != nil {
		t.Fatalf("empty graph: %v, table %v", err, none)
	}
	none.Close()
	if _, err := open(empty, EnvConfig{}); err != nil {
		t.Fatalf("reopening an empty graph's directory: %v", err)
	}

	// The manifest of a version-1 directory, as PR 25 and before wrote it.
	v1 := t.TempDir()
	nd.copyTo(t, v1, map[string][]byte{fileManifest: []byte(`{
  "version": 1,
  "numAttrs": 0,
  "layer": {"tree": {"root": 1, "height": 2, "size": 100, "valSize": 12}, "numObjects": 120}
}`)})
	if err := os.Remove(filepath.Join(v1, fileDerivedSlab)); err != nil {
		t.Fatal(err)
	}
	if _, err := open(v1, EnvConfig{}); !errors.Is(err, ErrIncompatible) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 directory: %v, want ErrIncompatible", err)
	}
}

// Two builds of the same inputs write the same bytes — the goroutines beside
// the page-file writers decide nothing — and a concurrent pair of builds and
// opens is what `go test -race -run BuildDir` watches.
func TestBuildDirDeterministic(t *testing.T) {
	first := buildNetDir(t, 2605, 500, 400, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dir := t.TempDir()
			env, err := NewEnv(first.g, first.objs, EnvConfig{Dir: dir, Backend: storage.BackendMmap})
			if err != nil {
				t.Error(err)
				return
			}
			defer env.Close()
			for name, want := range first.files {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s differs between two builds of the same inputs (err %v)", name, err)
				}
			}
		}()
	}
	wg.Wait()
}

// resealSlab recomputes a derived-slab image's checksums from the format's
// description alone (docs/DATAPATH.md): CRC-32C of each payload that lies
// inside the image, then of header and table with the checksum field zero.
// The fuzzer cannot forge checksums; with them recomputed its bytes reach
// the range checks and the section decoders.
func resealSlab(img []byte) []byte {
	img = bytes.Clone(img)
	if len(img) < 24 {
		return img
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	count := int(min(binary.LittleEndian.Uint32(img[12:]), 64))
	end := min(24+48*count, len(img))
	for e := 24; e+48 <= end; e += 48 {
		off, n := binary.LittleEndian.Uint64(img[e+8:]), binary.LittleEndian.Uint64(img[e+16:])
		if off <= uint64(len(img)) && n <= uint64(len(img))-off {
			binary.LittleEndian.PutUint32(img[e+4:], crc32.Checksum(img[off:off+n], castagnoli))
		}
	}
	binary.LittleEndian.PutUint32(img[16:], 0)
	binary.LittleEndian.PutUint32(img[16:], crc32.Checksum(img[:end], castagnoli))
	return img
}

// FuzzDerivedSlab: arbitrary bytes — as they are, and with their checksums
// recomputed — through slab.Parse and the three section decoders give an
// error or structures that keep every promise OpenEnv makes of them: one key
// per edge; an R-tree holding every object exactly once within its
// invariants; a landmark table of NumNodes x K distances whose landmark
// nodes exist, so that no Bound indexes outside it. Never a panic, never an
// allocation sized by a number the image merely claims.
func FuzzDerivedSlab(f *testing.F) {
	nd := buildNetDir(f, 2606, 12, 9, 0)
	real := nd.files[fileDerivedSlab]
	f.Add(real)
	for _, n := range []int{0, 23, 24, 24 + 48, 24 + 4*48, len(real) / 2, len(real) - 1} {
		f.Add(real[:n])
	}
	for bit := 0; bit < (24+4*48)*8; bit += 7 {
		img := bytes.Clone(real)
		img[bit/8] ^= 1 << (bit % 8)
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, resealSlab(data)} {
			secs, err := slab.Parse(img)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Parse: %v does not wrap ErrCorrupt", err)
				}
				continue
			}
			file := &slab.File{Sections: secs}
			typed := func(err error) {
				if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIncompatible) {
					t.Fatalf("decoder error %v wraps neither sentinel", err)
				}
			}
			keys, err := openEdgeKeys(file, nd.g)
			typed(err)
			if err == nil && len(keys) != nd.g.NumEdges() {
				t.Fatalf("%d keys for %d edges", len(keys), nd.g.NumEdges())
			}
			tree, _, err := openObjTree(file, nd.g, nd.objs)
			typed(err)
			if err == nil {
				if err := checkObjTree(tree, len(nd.objs)); err != nil {
					t.Fatal(err)
				}
			}
			table, _, err := openLandmarks(file, nd.g)
			typed(err)
			if err == nil && table != nil {
				n, k := nd.g.NumNodes(), table.K()
				if k < 1 || k > n || len(table.Flat()) != n*k {
					t.Fatalf("table of %d landmarks, %d distances, for %d nodes", k, len(table.Flat()), n)
				}
				for _, v := range table.Nodes() {
					if v < 0 || int(v) >= n {
						t.Fatalf("landmark node %d of %d", v, n)
					}
				}
				th := table.ForTarget(nd.objs[0].Loc, nd.g.Point(nd.objs[0].Loc))
				for v := 0; v < n; v++ {
					_ = th.Bound(graph.NodeID(v))
				}
			}
		}
	})
}

// checkObjTree: the tree keeps its invariants' promise to queries — every
// object id is in it exactly once.
func checkObjTree(tree *rtree.Tree, n int) error {
	if tree.Len() != n {
		return fmt.Errorf("tree of %d entries for %d objects", tree.Len(), n)
	}
	seen := make([]bool, n)
	var err error
	tree.SearchFunc(func(geom.Rect) bool { return true }, func(e rtree.Entry) bool {
		if e.ID < 0 || int(e.ID) >= n || seen[e.ID] {
			err = fmt.Errorf("entry %d out of range or twice", e.ID)
			return false
		}
		seen[e.ID] = true
		return true
	})
	for id, ok := range seen {
		if err == nil && !ok {
			err = fmt.Errorf("object %d is not in the tree", id)
		}
	}
	return err
}
