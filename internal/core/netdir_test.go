package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"roadskyline/internal/diskgraph"
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

// copyTo writes the pristine files into dir, with the given replacements
// (and additions).
func (nd *netDir) copyTo(t testing.TB, dir string, replace map[string][]byte) {
	t.Helper()
	files := maps.Clone(nd.files)
	maps.Copy(files, replace)
	for name, raw := range files {
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

// resealed returns the pristine network slab with mutate applied to its
// sections and every checksum recomputed (slab.Write seals what it is
// given), so the change reaches the checks behind the checksums.
func (nd *netDir) resealed(t testing.TB, mutate func([]slab.Section) []slab.Section) map[string][]byte {
	t.Helper()
	secs := mustParse(t, nd.files[fileSlab])
	for i := range secs {
		secs[i].Data = bytes.Clone(secs[i].Data)
	}
	path := filepath.Join(t.TempDir(), fileSlab)
	if err := slab.Write(path, mutate(secs)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{fileSlab: raw}
}

func sectionOf(secs []slab.Section, tag uint32) *slab.Section {
	for i := range secs {
		if secs[i].Tag == tag {
			return &secs[i]
		}
	}
	panic(fmt.Sprintf("no section %d", tag))
}

// flipAt places each section's flipped bit: the record size and the byte
// within the middle record whose low bit TestOpenEnvCorruption flips — a
// coordinate, a length, an offset, an attribute — where a changed value is
// still in range and nothing but the checksum can tell.
var flipAt = map[uint32][2]int{
	tagManifest: {8, 0}, tagNodes: {24, 8}, tagEdges: {24, 16}, tagHalfedges: {16, 8}, tagAdjOff: {4, 0},
	tagObjectLocs: {16, 8}, tagAttrs: {8, 0}, tagAdjDirectory: {6, 4},
	tagEdgeKeys: {8, 0}, tagLeafOrder: {4, 0}, tagLandmarkNodes: {4, 0}, tagLandmarkDists: {8, 0},
}

// parts group network.slab's sections by the file that held them in the
// eight-file layout (directory format version 2), and TestOpenEnvCorruption
// names a section's cases after its part, so each case of that layout keeps
// its name and now damages the bytes that hold its field. The payloads lie
// in the slab as they lay in those files: head is the old file's header,
// payload the offset of its first payload byte (derived.slab, the slab's
// first use, kept its section table in between). manifest.json was JSON;
// its facts are the manifest section and the parameters named where the
// test damages them.
var parts = []struct {
	file          string
	tags          []uint32
	head, payload int
}{
	{"graph.slab", []uint32{tagNodes, tagEdges, tagHalfedges, tagAdjOff}, 72, 72},
	{"objects.slab", []uint32{tagObjectLocs, tagAttrs}, 32, 32},
	{"adjacency.dir", []uint32{tagAdjDirectory}, 64, 64},
	{"derived.slab", []uint32{tagEdgeKeys, tagLeafOrder, tagLandmarkNodes, tagLandmarkDists}, 24, 24 + 48*4},
	{"manifest.json", []uint32{tagManifest}, 0, 0},
}

// partOf names the part that holds a section.
func partOf(tag uint32) string {
	for _, p := range parts {
		if slices.Contains(p.tags, tag) {
			return p.file
		}
	}
	panic(fmt.Sprintf("no part holds section %d", tag))
}

// The corruption table, for the four files of a built directory. Cases on a
// whole file are named after it; cases on a section after its part (see
// parts). Every file is truncated to nothing, to the middle and to one byte
// short (the slab also to one byte short of its header, a page file at a
// page boundary), and the slab where each part's old file was cut; every
// header and section-table field of the slab is overwritten with 0, all
// ones and its value plus one, and the old binary headers' fields again on
// what holds them now, checksums recomputed; one low bit is flipped in the
// middle of every section's payload; manifest.json's numbers are changed
// with the checksums left stale and — like the other parameters — with them
// recomputed, so the range and cross-section checks behind them are on
// trial too, as are sections gone missing. Each case must be refused (see
// mustRefuse) with ErrCorrupt — or ErrIncompatible where the field is a
// format version. Where the slab stores once a fact the eight files stored
// twice, the cases of both copies damage the same bytes.
//
// Seeded mutations: skipping Section.Verify on the graph's sections fails
// graph.slab/flip/nodes, /edges, /halfedges and /adjoff by name; on the key
// table, derived.slab/flip/keys; dropping openLandmarks' test of a table
// with fewer landmarks than asked fails
// derived.slab/resealed/landmarknodes.param0=9 and
// manifest.json/resealed/landmarks=9.
func TestOpenEnvCorruption(t *testing.T) {
	nd := buildNetDir(t, 2601, 400, 300, 2)
	if len(nd.files) != 4 {
		t.Fatalf("directory holds %d files, want the three page files and %s", len(nd.files), fileSlab)
	}
	for name, raw := range nd.files {
		sizes := []int{0, len(raw) / 2, len(raw) - 1}
		if name == fileSlab {
			sizes = append(sizes, 24-1)
		} else if aligned := len(raw) / 2 &^ (storage.PageSize - 1); aligned > 0 {
			sizes = append(sizes, aligned) // a page file cut at a page boundary
		}
		for _, n := range sizes {
			nd.mustRefuse(t, fmt.Sprintf("%s/truncate/%d", name, n), ErrCorrupt, map[string][]byte{name: raw[:n]})
		}
	}

	raw := nd.files[fileSlab]
	secs := mustParse(t, raw)
	index := func(tag uint32) int {
		return slices.IndexFunc(secs, func(s slab.Section) bool { return s.Tag == tag })
	}
	offset := func(i int) int { return int(binary.LittleEndian.Uint64(raw[24+48*i+8:])) }

	// The slab cut where each part's old file was cut — to nothing, one byte
	// short of its header, the middle, one byte short — counting from where
	// that file would begin if its payload lay on the part's.
	for _, p := range parts[:4] {
		first, last := index(p.tags[0]), index(p.tags[len(p.tags)-1])
		start := offset(first)
		size := p.payload + offset(last) + len(secs[last].Data) - start
		for _, n := range []int{0, p.head - 1, size / 2, size - 1} {
			nd.mustRefuse(t, fmt.Sprintf("%s/truncate/%d", p.file, n), ErrCorrupt,
				map[string][]byte{fileSlab: raw[:start-p.payload+n]})
		}
	}
	// manifest.json held the manifest in 273 bytes of JSON: its byte n falls
	// at the same fraction of the manifest section.
	const manifestJSON = 273
	m := index(tagManifest)
	for _, n := range []int{0, manifestJSON / 2, manifestJSON - 1} {
		cut := offset(m) + n*len(secs[m].Data)/manifestJSON
		nd.mustRefuse(t, fmt.Sprintf("manifest.json/truncate/%d", n), ErrCorrupt, map[string][]byte{fileSlab: raw[:cut]})
	}

	// Header and section-table fields: offset and width of the version, the
	// count, and every section's offset, length and parameters.
	type field struct {
		name string
		off  int
		size int
	}
	fields := []field{{fileSlab + "/version", 8, 4}, {fileSlab + "/count", 12, 4}}
	for i, s := range secs {
		e, n := 24+48*i, partOf(s.Tag)+"/"+sectionNames[s.Tag]
		fields = append(fields, field{n + ".offset", e + 8, 8}, field{n + ".length", e + 16, 8},
			field{n + ".param0", e + 24, 8}, field{n + ".param1", e + 32, 8})
	}
	put := func(img []byte, off, size int, v uint64) {
		if size == 4 {
			binary.LittleEndian.PutUint32(img[off:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(img[off:], v)
		}
	}
	for _, f := range fields {
		old := binary.LittleEndian.Uint64(raw[f.off:])
		if f.size == 4 {
			old = uint64(binary.LittleEndian.Uint32(raw[f.off:]))
		}
		for _, v := range []uint64{0, math.MaxUint64, old + 1} {
			if v == old || f.size == 4 && uint32(v) == uint32(old) {
				continue
			}
			img := bytes.Clone(raw)
			put(img, f.off, f.size, v)
			nd.mustRefuse(t, fmt.Sprintf("%s=%d", f.name, v), ErrCorrupt, map[string][]byte{fileSlab: img})
		}
	}

	// The old binary headers' fields, on what holds each now — the slab's
	// one version, its section count, a section's length in records, the
	// attribute count, derived.slab's offsets as that file counted them —
	// with the checksums recomputed: those headers had none, so their cases
	// were on the size and range checks behind, and still are.
	retabled := func(name string, off, size int, v uint64) {
		img := bytes.Clone(raw)
		put(img, off, size, v)
		nd.mustRefuse(t, name, ErrCorrupt, map[string][]byte{fileSlab: resealSlab(img)})
	}
	for _, p := range parts[:4] {
		for _, v := range []uint64{0, math.MaxUint64, 2} {
			retabled(fmt.Sprintf("%s/version=%d", p.file, v), 8, 4, v)
		}
	}
	derivedTags := parts[3].tags
	for _, v := range []uint64{0, math.MaxUint64, uint64(len(derivedTags)) + 1} {
		retabled(fmt.Sprintf("derived.slab/count=%d", v), 12, 4, v)
	}
	start := offset(index(derivedTags[0]))
	for _, tag := range derivedTags {
		off := offset(index(tag))
		retabled(fmt.Sprintf("derived.slab/%s.offset=%d", sectionNames[tag], parts[3].payload+off-start+1), 24+48*index(tag)+8, 8, uint64(off)+1)
	}
	for _, c := range []struct {
		name   string
		tag    uint32
		record int // bytes per counted record; 0: the count is param 0
	}{
		{"graph.slab/nodes", tagNodes, 24}, {"graph.slab/edges", tagEdges, 24}, {"graph.slab/halfedges", tagHalfedges, 16},
		{"objects.slab/objects", tagObjectLocs, 16}, {"objects.slab/attrs", tagAttrs, 0},
		{"adjacency.dir/nodes", tagAdjDirectory, 6},
	} {
		i := index(c.tag)
		old, at := secs[i].Params[0], 24+48*i+24
		if c.record > 0 {
			old, at = uint64(len(secs[i].Data)/c.record), 24+48*i+16
		}
		for _, v := range []uint64{0, math.MaxUint64, old + 1} {
			w := v
			if c.record > 0 && v != math.MaxUint64 {
				w = v * uint64(c.record)
			}
			retabled(fmt.Sprintf("%s=%d", c.name, v), at, 8, w)
		}
	}
	// adjacency.dir's page count is the page file's length now: a directory
	// that claims more pages names a record on a page past the end.
	pages := uint64(len(nd.files[fileAdjPages]) / storage.PageSize)
	for _, v := range []uint64{0, math.MaxUint64, pages + 1} {
		nd.mustRefuse(t, fmt.Sprintf("adjacency.dir/pages=%d", v), ErrCorrupt,
			nd.resealed(t, func(secs []slab.Section) []slab.Section {
				binary.LittleEndian.PutUint32(sectionOf(secs, tagAdjDirectory).Data, uint32(v-1))
				return secs
			}))
	}

	// One low bit flipped in the middle of each section.
	if len(flipAt) != len(secs) {
		t.Fatalf("the slab has %d sections, flipAt knows %d: extend it", len(secs), len(flipAt))
	}
	for i, s := range secs {
		at := flipAt[s.Tag]
		off := offset(i) + len(s.Data)/at[0]/2*at[0] + at[1]
		img := bytes.Clone(raw)
		img[off] ^= 0x01
		nd.mustRefuse(t, fmt.Sprintf("%s/flip/%s", partOf(s.Tag), sectionNames[s.Tag]), ErrCorrupt, map[string][]byte{fileSlab: img})
	}

	// The derived sections' parameters again, checksums recomputed: what the
	// decoders hold to the graph, the objects and the page files. A value
	// stored once and contradicted by nothing — a fanout of 101 for a leaf
	// order sorted at 100 packs a valid tree — is skipped.
	type param struct {
		tag  uint32
		p    int
		want map[uint64]error // by overwritten value; absent = ErrCorrupt, nil entry = skipped
	}
	for _, p := range []param{
		{tagEdgeKeys, 0, map[uint64]error{0: ErrIncompatible, math.MaxUint64: ErrIncompatible, edgeKeyVersion + 1: ErrIncompatible}},
		{tagEdgeKeys, 1, nil},
		{tagLeafOrder, 0, map[uint64]error{rtree.DefaultFanout + 1: nil}},
		{tagLeafOrder, 1, nil},
		{tagLandmarkNodes, 0, nil},
		{tagLandmarkNodes, 1, nil},
		{tagLandmarkNodes, 2, map[uint64]error{0: nil}}, // "not finite" over a finite table is the slow path to the same bounds
		{tagLandmarkDists, 0, nil},
		{tagLandmarkDists, 1, nil},
	} {
		old := sectionOf(secs, p.tag).Params[p.p]
		for _, v := range []uint64{0, math.MaxUint64, old + 1} {
			want, listed := p.want[v]
			if v == old || listed && want == nil {
				continue
			}
			if !listed {
				want = ErrCorrupt
			}
			nd.mustRefuse(t, fmt.Sprintf("%s/resealed/%s.param%d=%d", partOf(p.tag), sectionNames[p.tag], p.p, v), want,
				nd.resealed(t, func(secs []slab.Section) []slab.Section {
					sectionOf(secs, p.tag).Params[p.p] = v
					return secs
				}))
		}
	}

	// manifest.json's numbers: the manifest section's version and B+-tree
	// words (root, height, size, value size, pages), and the parameters
	// that took its other scalars. Each is changed first with the checksum
	// left stale, then — where another structure can contradict the new
	// value — resealed. The R-tree fanout is stored once now, and only a
	// value out of range is refused.
	const maxInt = math.MaxInt32
	type mfield struct {
		name     string
		tag      uint32
		param    int // the parameter that holds the number, or -1 ...
		word     int // ... for this word of the manifest payload
		resealed map[int64]error
	}
	both := func(err error, vals ...int64) map[int64]error {
		m := map[int64]error{}
		for _, v := range vals {
			m[v] = err
		}
		return m
	}
	meta := secs[m].Data
	word := func(w int) int64 { return int64(binary.LittleEndian.Uint64(meta[8*w:])) }
	for _, f := range []mfield{
		{"version", tagManifest, 0, 0, both(ErrIncompatible, 0, maxInt, formatVersion+1, 1)},
		{"numAttrs", tagAttrs, 0, 0, both(ErrCorrupt, 0, maxInt, int64(sectionOf(secs, tagAttrs).Params[0])+1)},
		{"numObjects", tagLeafOrder, 1, 0, both(ErrCorrupt, 0, maxInt, int64(len(nd.objs))+1)},
		{"tree.root", tagManifest, -1, 0, nil},
		{"tree.height", tagManifest, -1, 1, both(ErrCorrupt, 0, 1<<31)},
		{"tree.size", tagManifest, -1, 2, nil},
		{"tree.valSize", tagManifest, -1, 3, both(ErrCorrupt, 0, maxInt, word(3)+1)},
		{"tree.pages", tagManifest, -1, 4, both(ErrCorrupt, 0, maxInt, word(4)+1)},
		{"landmarks", tagLandmarkNodes, 0, 0, both(ErrCorrupt, 0, maxInt, DefaultLandmarks+1)},
		{"rtreeFanout", tagLeafOrder, 0, 0, both(ErrCorrupt, 0, maxInt)},
		{"edgeKeyVersion", tagEdgeKeys, 0, 0, both(ErrIncompatible, 0, maxInt, edgeKeyVersion+1)},
	} {
		i := index(f.tag)
		old, at := word(f.word), offset(i)+8*f.word // a manifest word
		if f.param >= 0 {
			old, at = int64(secs[i].Params[f.param]), 24+48*i+24+8*f.param // a table parameter
		}
		vals := []int64{0, maxInt, old + 1, 1}
		if f.name == "tree.root" {
			vals = []int64{-1, maxInt, word(4)} // no page, one out of range, one past the index file
			f.resealed = both(ErrCorrupt, vals...)
		}
		set := func(secs []slab.Section, v int64) {
			if s := sectionOf(secs, f.tag); f.param >= 0 {
				s.Params[f.param] = uint64(v)
			} else {
				binary.LittleEndian.PutUint64(s.Data[8*f.word:], uint64(v))
			}
		}
		for _, v := range vals {
			if v == old {
				continue
			}
			img := bytes.Clone(raw)
			put(img, at, 8, uint64(v))
			nd.mustRefuse(t, fmt.Sprintf("manifest.json/stale/%s=%d", f.name, v), ErrCorrupt, map[string][]byte{fileSlab: img})
		}
		for _, v := range slices.Sorted(maps.Keys(f.resealed)) {
			nd.mustRefuse(t, fmt.Sprintf("manifest.json/resealed/%s=%d", f.name, v), f.resealed[v],
				nd.resealed(t, func(secs []slab.Section) []slab.Section {
					set(secs, v)
					return secs
				}))
		}
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"not json", []byte("RSKGRAF1")},
		{"reformatted", append(bytes.Clone(meta), '\n')},
	} {
		nd.mustRefuse(t, "manifest.json/"+c.name, ErrCorrupt, nd.resealed(t, func(secs []slab.Section) []slab.Section {
			sectionOf(secs, tagManifest).Data = c.data
			return secs
		}))
	}

	// Every section gone, one at a time, and the landmark pair together (a
	// build without a table still writes both, empty).
	drops := [][]uint32{{tagLandmarkNodes, tagLandmarkDists}}
	for _, s := range secs {
		drops = append(drops, []uint32{s.Tag})
	}
	for _, drop := range drops {
		nd.mustRefuse(t, fmt.Sprintf("%s/resealed/without%v", partOf(drop[0]), drop), ErrCorrupt,
			nd.resealed(t, func(secs []slab.Section) []slab.Section {
				return slices.DeleteFunc(secs, func(s slab.Section) bool { return slices.Contains(drop, s.Tag) })
			}))
	}
}

// Adjacency records are page bytes, which OpenEnv does not read, so a record
// that lies about itself must fail the query that reads it with ErrCorrupt,
// not panic it. Every record of adjacency.pages is damaged the same way, so
// whichever node a query expands first trips it: a degree that runs off the
// page, and a first entry naming a neighbour or an edge out of range. CE, EDC
// and LBC each run on the file and mmap backends. An adjacency-directory
// offset that leaves no room for a record's header is refused at open.
//
// Seeded mutations: dropping the degree's extent check from
// diskgraph.Store.Neighbors fails degree; dropping its neighbour-id check
// fails neighbour.
func TestQueryCorruptAdjacency(t *testing.T) {
	nd := buildNetDir(t, 2604, 400, 300, 0)
	adjDir := sectionOf(mustParse(t, nd.files[fileSlab]), tagAdjDirectory).Data
	// records applies put to every record of the adjacency pages, found
	// through the directory (page u32 and offset u16 per node).
	records := func(put func(rec []byte)) map[string][]byte {
		img := bytes.Clone(nd.files[fileAdjPages])
		for i := range nd.g.NumNodes() {
			e := adjDir[6*i:]
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
	nd.mustRefuse(t, "offset", ErrCorrupt, nd.resealed(t, func(secs []slab.Section) []slab.Section {
		binary.LittleEndian.PutUint16(sectionOf(secs, tagAdjDirectory).Data[6*7+4:], storage.PageSize-2)
		return secs
	}))
}

// Middle-layer pages are page bytes too, which OpenEnv does not read, so a
// page that lies about itself must fail the query that reads it with
// ErrCorrupt, not panic it. Each case damages every page or record of one
// file the same way, so CE's first middle-layer probe trips it:
//   - count: every index page claims 0xFFFF entries;
//   - child: every internal index page names children past the file;
//   - value: every leaf value puts its records on a page past the file;
//   - record/*: every record names an object past the objects or a
//     negative one, or an offset past its edge or not a number.
//
// EDC and LBC reach objects through the R-tree and never probe the middle
// layer, so they must answer exactly as on the intact directory. Each runs
// on the file and mmap backends.
//
// Seeded mutations: dropping the count check from bptree.Tree.Get fails
// count (CE panics with a slice bound out of range); dropping its child-id
// check fails child (storage.ErrPageBounds); dropping the run check from
// middlelayer.Layer.ObjectsOn fails value (ErrPageBounds); dropping its
// object-id check fails record/id (CE panics in sp.Scratch.improveObject);
// comparing the id as a signed int against the object count alone fails
// record/negative id; dropping the offset check fails record/offset and
// record/nan.
func TestQueryCorruptIndex(t *testing.T) {
	nd := buildNetDir(t, 2605, 400, 300, 0)
	const (
		leafStride = 8 + 12 // key, then (page, slot, count) u32s
		intStride  = 8 + 4  // key, then child i32
		recSize    = 12     // object id u32, offset f64
	)
	// pages applies put to every page of the index whose kind byte is kind
	// (0 leaf, 1 internal), or to every page under anyKind.
	const anyKind = 0xFF
	pages := func(kind byte, put func(p []byte)) map[string][]byte {
		img := bytes.Clone(nd.files[fileTreePages])
		for off := 0; off < len(img); off += storage.PageSize {
			if p := img[off : off+storage.PageSize]; kind == anyKind || p[0] == kind {
				put(p)
			}
		}
		return map[string][]byte{fileTreePages: img}
	}
	count := func(p []byte) int { return int(binary.LittleEndian.Uint16(p[1:])) }
	// records applies put to every record of the record file.
	records := func(put func(rec []byte)) map[string][]byte {
		img := bytes.Clone(nd.files[fileRecPages])
		perPage := storage.PageSize / recSize
		for i := range nd.objs {
			put(img[i/perPage*storage.PageSize+i%perPage*recSize:])
		}
		return map[string][]byte{fileRecPages: img}
	}
	offset := func(v float64) func([]byte) {
		return func(rec []byte) { binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(v)) }
	}
	internal := 0
	pages(1, func([]byte) { internal++ })
	if internal == 0 {
		t.Fatal("the index has no internal page: the child case tests nothing")
	}
	rng := rand.New(rand.NewSource(2605))
	q := Query{Points: testnet.RandomLocations(rng, nd.g, 3)}
	intact, err := OpenEnv(nd.dir, EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer intact.Close()
	for _, c := range []struct {
		name    string
		replace map[string][]byte
	}{
		{"count", pages(anyKind, func(p []byte) { binary.LittleEndian.PutUint16(p[1:], 0xFFFF) })},
		{"child", pages(1, func(p []byte) {
			binary.LittleEndian.PutUint32(p[3:], 0x7FFFFFF0)
			for i := range count(p) {
				binary.LittleEndian.PutUint32(p[7+i*intStride+8:], 0x7FFFFFF0)
			}
		})},
		{"value", pages(0, func(p []byte) {
			for i := range count(p) {
				binary.LittleEndian.PutUint32(p[7+i*leafStride+8:], 0x7FFFFFF0)
			}
		})},
		{"record/id", records(func(rec []byte) { binary.LittleEndian.PutUint32(rec, 0x7FFFFFF0) })},
		{"record/negative id", records(func(rec []byte) { binary.LittleEndian.PutUint32(rec, 0xFFFFFFF0) })},
		{"record/offset", records(offset(1e9))},
		{"record/nan", records(offset(math.NaN()))},
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
						res, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
						if alg == AlgCE {
							if !errors.Is(err, ErrCorrupt) {
								t.Errorf("%v %v: error %v, want ErrCorrupt", backend, alg, err)
							}
							return
						}
						want, werr := Run(context.Background(), intact, q, alg, Options{ColdCache: true})
						if err != nil || werr != nil {
							t.Fatalf("%v %v: error %v (intact: %v)", backend, alg, err, werr)
						}
						if err := sameSkyline(res, want); err != nil {
							t.Errorf("%v %v: against the intact directory: %v", backend, alg, err)
						}
					}()
				}
				if err := env.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// What OpenEnv validates beyond sizes and checksums, each on a slab whose
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
	patch := func(tag uint32, off int, put func([]byte)) map[string][]byte {
		return nd.resealed(t, func(secs []slab.Section) []slab.Section {
			put(sectionOf(secs, tag).Data[off:])
			return secs
		})
	}
	u32 := func(v uint32) func([]byte) { return func(b []byte) { binary.LittleEndian.PutUint32(b, v) } }
	f64 := func(v float64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
	}
	nn, ne, nh := nd.g.NumNodes(), nd.g.NumEdges(), 2*nd.g.NumEdges()

	// Object locations: (edge i32, pad, offset f64) per object.
	const obj7 = 7 * 16
	nd.mustRefuse(t, "objects/edge past the graph", ErrCorrupt, patch(tagObjectLocs, obj7, u32(uint32(ne))))
	nd.mustRefuse(t, "objects/negative edge", ErrCorrupt, patch(tagObjectLocs, obj7, u32(0xFFFFFFFF)))
	nd.mustRefuse(t, "objects/offset past the edge", ErrCorrupt, patch(tagObjectLocs, obj7+8, f64(1e9)))
	nd.mustRefuse(t, "objects/negative offset", ErrCorrupt, patch(tagObjectLocs, obj7+8, f64(-0.5)))
	nd.mustRefuse(t, "objects/NaN offset", ErrCorrupt, patch(tagObjectLocs, obj7+8, f64(math.NaN())))

	// The graph: nodes x24, edges x24, halfedges x16, adjOff x4.
	nd.mustRefuse(t, "graph/node id", ErrCorrupt, patch(tagNodes, 5*24, u32(6)))
	nd.mustRefuse(t, "graph/edge id", ErrCorrupt, patch(tagEdges, 5*24, u32(6)))
	nd.mustRefuse(t, "graph/edge endpoint past the nodes", ErrCorrupt, patch(tagEdges, 5*24+4, u32(uint32(nn))))
	nd.mustRefuse(t, "graph/negative edge endpoint", ErrCorrupt, patch(tagEdges, 5*24+8, u32(0x80000000)))
	nd.mustRefuse(t, "graph/halfedge target past the nodes", ErrCorrupt, patch(tagHalfedges, 9*16, u32(uint32(nn))))
	nd.mustRefuse(t, "graph/halfedge edge past the edges", ErrCorrupt, patch(tagHalfedges, 9*16+4, u32(uint32(ne))))
	nd.mustRefuse(t, "graph/adjacency offsets start above zero", ErrCorrupt, patch(tagAdjOff, 0, u32(1)))
	nd.mustRefuse(t, "graph/adjacency offsets fall", ErrCorrupt, patch(tagAdjOff, 40*4, u32(0)))
	nd.mustRefuse(t, "graph/adjacency offsets negative", ErrCorrupt, patch(tagAdjOff, 40*4, u32(0xFFFFFFF0)))
	nd.mustRefuse(t, "graph/adjacency offsets end early", ErrCorrupt, patch(tagAdjOff, nn*4, u32(uint32(nh-1))))
	nd.mustRefuse(t, "graph/adjacency offsets end late", ErrCorrupt, patch(tagAdjOff, nn*4, u32(uint32(nh+1))))

	// Ids that are not a permutation, landmark nodes that are not nodes.
	order := sectionOf(mustParse(t, nd.files[fileSlab]), tagLeafOrder).Data
	nd.mustRefuse(t, "leaforder/twice", ErrCorrupt, patch(tagLeafOrder, 4*3, u32(binary.LittleEndian.Uint32(order[4*90:]))))
	nd.mustRefuse(t, "leaforder/past the objects", ErrCorrupt, patch(tagLeafOrder, 4*3, u32(uint32(len(nd.objs)))))
	nd.mustRefuse(t, "leaforder/negative", ErrCorrupt, patch(tagLeafOrder, 4*3, u32(0xFFFFFFFF)))
	for name, v := range map[string]uint32{"past the nodes": uint32(nn), "negative": 0xFFFFFFFE} {
		nd.mustRefuse(t, "landmarknodes/"+name, ErrCorrupt, patch(tagLandmarkNodes, 4, u32(v)))
	}

	// Sections of two intact directories over different graphs: each passes
	// its own checks, together they do not fit.
	other := buildNetDir(t, 2603, 280, 200, 1)
	theirs := mustParse(t, other.files[fileSlab])
	swap := func(tags ...uint32) map[string][]byte {
		return nd.resealed(t, func(secs []slab.Section) []slab.Section {
			for _, tag := range tags {
				*sectionOf(secs, tag) = *sectionOf(theirs, tag)
			}
			return secs
		})
	}
	adjacency := swap(tagAdjDirectory)
	adjacency[fileAdjPages] = other.files[fileAdjPages]
	nd.mustRefuse(t, "adjacency of another graph", ErrCorrupt, adjacency)
	nd.mustRefuse(t, "graph of another network", ErrCorrupt, swap(tagNodes, tagEdges, tagHalfedges, tagAdjOff))
	nd.mustRefuse(t, "derived slab of another network", ErrCorrupt, swap(tagEdgeKeys, tagLeafOrder, tagLandmarkNodes, tagLandmarkDists))
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
// unread, a positive value that disagrees is ErrIncompatible, a directory
// of an earlier format is ErrIncompatible — and nothing is ever rebuilt to
// please.
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

	// A version-1 directory: page files and a manifest.json, no slab.
	v1 := t.TempDir()
	nd.copyTo(t, v1, map[string][]byte{"manifest.json": []byte(`{
  "version": 1,
  "numAttrs": 0,
  "layer": {"tree": {"root": 1, "height": 2, "size": 100, "valSize": 12}, "numObjects": 120}
}`)})
	if err := os.Remove(filepath.Join(v1, fileSlab)); err != nil {
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

// A rebuild removes the old slab before it touches a page file and renames
// the new one into place last, so a build that fails at the end leaves a
// directory OpenEnv refuses — not the first network's metadata over the
// second one's pages. Here the final create fails: the temporary slab's
// name is taken by a directory.
//
// Seeded mutation: keeping the old slab when a rebuild starts fails this
// test (the stale slab opens, or is refused only for not fitting).
func TestBuildDirAtomic(t *testing.T) {
	nd := buildNetDir(t, 2607, 300, 200, 1)
	rng := rand.New(rand.NewSource(2607))
	g := testnet.RandomGraph(rng, 320)
	objs := testnet.RandomObjects(rng, g, 150, 1)
	if err := os.Mkdir(filepath.Join(nd.dir, fileSlab+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if env, err := NewEnv(g, objs, EnvConfig{Dir: nd.dir, Order: diskgraph.OrderNodeID}); err == nil {
		env.Close()
		t.Fatal("the rebuild succeeded with its slab's temporary name taken")
	}
	for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
		env, err := OpenEnv(nd.dir, EnvConfig{Backend: backend})
		if env != nil {
			env.Close()
		}
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%v: OpenEnv after a failed rebuild: %v, want the missing slab refused", backend, err)
		}
	}

	// With the name free again the rebuild completes, leaves the four files
	// and nothing else, and serves the second network.
	if err := os.Remove(filepath.Join(nd.dir, fileSlab+".tmp")); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(g, objs, EnvConfig{Dir: nd.dir, Order: diskgraph.OrderNodeID, Backend: storage.BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if env.G.NumNodes() != g.NumNodes() || len(env.Objects) != len(objs) {
		t.Fatalf("rebuilt directory serves %d nodes and %d objects, want %d and %d", env.G.NumNodes(), len(env.Objects), g.NumNodes(), len(objs))
	}
	entries, err := os.ReadDir(nd.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{fileAdjPages, fileTreePages, fileRecPages, fileSlab}; !slices.Equal(names, slices.Sorted(slices.Values(want))) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
}

// resealSlab recomputes a slab image's checksums from the format's
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

// FuzzDerivedSlab fuzzes the whole network slab (the name is older than
// the slab's graph, object, adjacency and manifest sections). Arbitrary
// bytes — as they are, and with their checksums recomputed — through
// slab.Parse and every section decoder (decodeEnv, over the pristine page
// files) give an error wrapping ErrCorrupt or ErrIncompatible, or an Env
// whose structures keep every promise OpenEnv makes of them: a graph whose
// halfedges and edges name its own nodes and edges; objects on its edges;
// one key per edge; an R-tree holding every object exactly once; a landmark
// table of NumNodes x K distances whose landmark nodes exist; an adjacency
// directory every node's record can be read through. Never a panic, never
// an out-of-range index, never an allocation sized by a number the image
// merely claims.
func FuzzDerivedSlab(f *testing.F) {
	nd := buildNetDir(f, 2606, 12, 9, 1)
	real := nd.files[fileSlab]
	f.Add(real)
	table := 24 + 48*len(mustParse(f, real))
	for _, n := range []int{0, 23, 24, 24 + 48, table, len(real) / 2, len(real) - 1} {
		f.Add(real[:n])
	}
	for bit := 0; bit < table*8; bit += 7 {
		img := bytes.Clone(real)
		img[bit/8] ^= 1 << (bit % 8)
		f.Add(img)
	}
	for bit := table * 8; bit < len(real)*8; bit += 31 {
		img := bytes.Clone(real)
		img[bit/8] ^= 1 << (bit % 8)
		f.Add(resealSlab(img))
	}
	pageFile := func(name string) storage.PageFile {
		mem := storage.NewMemFile()
		for raw := nd.files[name]; len(raw) > 0; raw = raw[storage.PageSize:] {
			if _, err := mem.AppendPage(raw[:storage.PageSize]); err != nil {
				f.Fatal(err)
			}
		}
		return mem
	}
	adj, tree, rec := pageFile(fileAdjPages), pageFile(fileTreePages), pageFile(fileRecPages)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, resealSlab(data)} {
			secs, err := slab.Parse(img)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Parse: %v does not wrap ErrCorrupt", err)
				}
				continue
			}
			cfg := EnvConfig{}
			applyEnvDefaults(&cfg)
			file := &slab.File{Sections: secs}
			env, err := decodeEnv(file, adj, tree, rec, cfg)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIncompatible) {
					t.Fatalf("decoder error %v wraps neither sentinel", err)
				}
				continue
			}
			if err := checkEnv(env, file); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkEnv holds an Env decoded from f to what queries take for granted of
// it.
func checkEnv(env *Env, f *slab.File) error {
	g := env.G
	n, ne := g.NumNodes(), g.NumEdges()
	for e := range ne {
		if ed := g.Edge(graph.EdgeID(e)); ed.U < 0 || int(ed.U) >= n || ed.V < 0 || int(ed.V) >= n {
			return fmt.Errorf("edge %d joins %d and %d of %d nodes", e, ed.U, ed.V, n)
		}
	}
	var buf []diskgraph.Neighbor
	for v := range n {
		for he := range g.Adj(graph.NodeID(v)).All() {
			if he.To < 0 || int(he.To) >= n || he.Edge < 0 || int(he.Edge) >= ne {
				return fmt.Errorf("node %d has a halfedge to %d over %d", v, he.To, he.Edge)
			}
		}
		var err error
		if _, err = env.Store.NodePoint(graph.NodeID(v)); err == nil {
			buf, err = env.Store.Neighbors(graph.NodeID(v), buf[:0])
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return fmt.Errorf("node %d's record: %v", v, err)
		}
		for _, nb := range buf {
			if nb.To < 0 || int(nb.To) >= n || nb.Edge < 0 || int(nb.Edge) >= ne {
				return fmt.Errorf("node %d's record lists %d over %d", v, nb.To, nb.Edge)
			}
		}
	}
	for _, o := range env.Objects {
		if err := g.ValidateLocation(o.Loc); err != nil || len(o.Attrs) != env.NumAttrs() {
			return fmt.Errorf("object %d at %+v with %d attributes: %v", o.ID, o.Loc, len(o.Attrs), err)
		}
	}
	if keys, err := openEdgeKeys(f, g); err != nil || len(keys) != ne {
		return fmt.Errorf("%d keys for %d edges (%v)", len(keys), ne, err)
	}
	if err := checkObjTree(env.ObjTree, len(env.Objects)); err != nil {
		return err
	}
	if table := env.Landmarks; table != nil {
		k := table.K()
		if k < 1 || k > n || len(table.Flat()) != n*k {
			return fmt.Errorf("table of %d landmarks, %d distances, for %d nodes", k, len(table.Flat()), n)
		}
		for _, v := range table.Nodes() {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("landmark node %d of %d", v, n)
			}
		}
		if len(env.Objects) > 0 {
			o := env.Objects[0]
			th := table.ForTarget(o.Loc, g.Point(o.Loc))
			for v := range n {
				_ = th.Bound(graph.NodeID(v))
			}
		}
	}
	return nil
}

// checkObjTree: the tree keeps its invariants' promise to queries — every
// object id is in it exactly once.
func checkObjTree(tree *rtree.Tree, n int) error {
	if tree.Len() != n {
		return fmt.Errorf("tree of %d entries for %d objects", tree.Len(), n)
	}
	seen := make([]bool, n)
	var err error
	tree.SearchFunc(func(int, geom.Rect) bool { return true }, func(_ int, leaf []rtree.Entry) bool {
		for _, e := range leaf {
			if e.ID < 0 || int(e.ID) >= n || seen[e.ID] {
				err = fmt.Errorf("entry %d out of range or twice", e.ID)
				return false
			}
			seen[e.ID] = true
		}
		return true
	})
	for id, ok := range seen {
		if err == nil && !ok {
			err = fmt.Errorf("object %d is not in the tree", id)
		}
	}
	return err
}
