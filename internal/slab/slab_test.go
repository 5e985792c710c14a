package slab

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roadskyline/internal/storage"
)

func testSections() []Section {
	return []Section{
		{Tag: 7, Params: [3]uint64{1, 2, 3}, Data: Bytes([]int64{-1, 2, math.MaxInt64})},
		{Tag: 9, Params: [3]uint64{4}, Data: Bytes([]int32{5, -6, 7})}, // 12 bytes: the next section needs padding
		{Tag: 8, Data: nil},
		{Tag: 3, Params: [3]uint64{0, 0, 9}, Data: Bytes([]float64{0.5, math.Inf(1)})},
	}
}

func writeImage(t testing.TB, sections []Section) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.slab")
	if err := Write(path, sections); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestRoundTrip(t *testing.T) {
	want := testSections()
	path := filepath.Join(t.TempDir(), "x.slab")
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Sections) != len(want) {
		t.Fatalf("%d sections, want %d", len(f.Sections), len(want))
	}
	for _, w := range want {
		s := f.Section(w.Tag)
		if s == nil {
			t.Fatalf("section %d missing", w.Tag)
		}
		if s.Params != w.Params || !bytes.Equal(s.Data, w.Data) {
			t.Errorf("section %d = %v %x, want %v %x", w.Tag, s.Params, s.Data, w.Params, w.Data)
		}
		if err := s.Verify(); err != nil {
			t.Errorf("section %d: %v", w.Tag, err)
		}
	}
	if f.Section(1234) != nil {
		t.Error("found a section that was never written")
	}
	if got := Words[int64](f.Section(7).Data); len(got) != 3 || got[0] != -1 || got[2] != math.MaxInt64 {
		t.Errorf("int64 section read back as %v", got)
	}
	if got := Words[float64](f.Section(3).Data); len(got) != 2 || got[0] != 0.5 || !math.IsInf(got[1], 1) {
		t.Errorf("float64 section read back as %v", got)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil || errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("opening a missing file: %v, want a plain file error", err)
	}
}

// Words decodes where it cannot alias (here: a misaligned payload) to the
// same values.
func TestWordsDecodes(t *testing.T) {
	vals := []float64{1.5, -2.25, math.Inf(1), 0}
	buf := make([]byte, 1+8*len(vals))
	copy(buf[1:], Bytes(vals))
	got := Words[float64](buf[1:])
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("word %d = %v, want %v", i, got[i], v)
		}
	}
	if &got[0] == (*float64)(nil) || len(got) != len(vals) {
		t.Fatal("decode lost words")
	}
	aligned := Words[float64](Bytes(vals))
	if storage.HostLittleEndian() && &aligned[0] != &vals[0] {
		t.Error("an aligned payload was copied on a little-endian host")
	}
	if Words[int64](nil) != nil || Bytes([]int32(nil)) != nil {
		t.Error("empty views are not nil")
	}
}

// reseal recomputes the table checksum after a test overwrote a field, so
// the overwrite reaches the range checks behind it.
func reseal(img []byte) {
	count := int(binary.LittleEndian.Uint32(img[12:]))
	end := min(headerSize+count*entrySize, len(img))
	binary.LittleEndian.PutUint32(img[tableCRCOff:], tableCRC(img[:end]))
}

// Every truncation, and every count, offset and length field overwritten
// with 0, all ones, its value plus one or plus eight, is ErrCorrupt —
// whether the table checksum is left stale (it catches the overwrite) or
// recomputed (the range checks or the payload checksums must).
func TestParseRejects(t *testing.T) {
	pristine := writeImage(t, testSections())
	if _, err := Parse(pristine); err != nil {
		t.Fatal(err)
	}
	check := func(name string, img []byte) {
		t.Helper()
		if secs, err := Parse(img); !errors.Is(err, storage.ErrCorrupt) || secs != nil {
			t.Errorf("%s: Parse = %d sections, %v; want ErrCorrupt", name, len(secs), err)
		}
	}
	for _, n := range []int{0, headerSize - 1, headerSize + entrySize, len(pristine) / 2, len(pristine) - 1} {
		check("truncated", pristine[:n])
	}
	check("trailing byte", append(bytes.Clone(pristine), 0))
	check("magic", append([]byte("RSKDRVD2"), pristine[8:]...))

	type field struct {
		name string
		off  int
		size int
	}
	fields := []field{{"version", 8, 4}, {"count", 12, 4}}
	for i := range testSections() {
		e := headerSize + i*entrySize
		fields = append(fields, field{"offset", e + 8, 8}, field{"length", e + 16, 8})
	}
	for _, f := range fields {
		var old uint64
		if f.size == 4 {
			old = uint64(binary.LittleEndian.Uint32(pristine[f.off:]))
		} else {
			old = binary.LittleEndian.Uint64(pristine[f.off:])
		}
		for _, v := range []uint64{0, math.MaxUint64, old + 1, old + 8} {
			if v == old {
				continue
			}
			img := bytes.Clone(pristine)
			if f.size == 4 {
				binary.LittleEndian.PutUint32(img[f.off:], uint32(v))
			} else {
				binary.LittleEndian.PutUint64(img[f.off:], v)
			}
			check(f.name+" stale", img)
			reseal(img)
			// A length may grow into zero padding and still lie in range;
			// then the payload no longer has its checksum.
			if secs, err := Parse(img); err == nil {
				bad := false
				for s := range secs {
					bad = bad || errors.Is(secs[s].Verify(), storage.ErrCorrupt)
				}
				if !bad {
					t.Errorf("%s resealed to %d: parsed and every section verified", f.name, v)
				}
			} else {
				check(f.name+" resealed", img)
			}
		}
	}
	// A section listed twice, table resealed.
	img := bytes.Clone(pristine)
	binary.LittleEndian.PutUint32(img[headerSize+entrySize:], 7)
	reseal(img)
	check("duplicate tag", img)

	// One flipped bit anywhere in the header or table fails Parse; one in a
	// payload fails that section's Verify and no other's.
	tableEnd := headerSize + len(testSections())*entrySize
	for i := 0; i < tableEnd; i++ {
		img := bytes.Clone(pristine)
		img[i] ^= 0x10
		check("header bit", img)
	}
	for i := tableEnd; i < len(pristine); i++ {
		img := bytes.Clone(pristine)
		img[i] ^= 0x10
		secs, err := Parse(img)
		if err != nil {
			// Padding between sections belongs to none of them and must
			// be zero.
			check("padding bit", img)
			continue
		}
		bad := 0
		for s := range secs {
			if err := secs[s].Verify(); err != nil {
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("payload byte %d: %v", i, err)
				}
				bad++
			}
		}
		if bad != 1 {
			t.Fatalf("payload byte %d failed %d sections, want 1", i, bad)
		}
	}
}

// A Writer renames its slab into place only once every section it was
// created for is in: a short Commit fails and Abort leaves nothing behind.
// An empty last section after an unaligned one still ends the file where
// the section table says.
func TestWriterCommitsOnlyComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.slab")
	w, err := Create(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(testSections()[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("Commit of 1 section of 2 succeeded")
	}
	w.Abort()
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s after Abort: %v", filepath.Base(p), err)
		}
	}

	img := writeImage(t, []Section{testSections()[1], {Tag: 8}})
	if _, err := Parse(img); err != nil {
		t.Fatalf("an empty last section after a 12-byte one: %v", err)
	}
}
