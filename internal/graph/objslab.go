package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"roadskyline/internal/storage"
)

// Objects slab: the object table serialized next to the graph slab. The
// attribute matrix — the bulk of the bytes when objects carry static
// skyline dimensions — is one packed f64 section that OpenObjects aliases
// from the mapping on matching hosts, so each Object's Attrs slice points
// into the file with no heap copy.
//
// Layout (all integers little endian):
//
//	[8]byte  magic "RSKOBJS1"
//	u32      version (1)
//	u32      reserved (0)
//	u64      numObjects
//	u64      numAttrs
//	locs     numObjects x 16            (edge i32, pad4, offset f64)
//	attrs    numObjects*numAttrs x 8    (f64, row per object)
const (
	objSlabMagic      = "RSKOBJS1"
	objSlabVersion    = 1
	objSlabHeaderSize = 32
	objLocSize        = 16
)

// WriteObjects serializes objects (all with numAttrs attributes, ids dense)
// to path.
func WriteObjects(objects []Object, numAttrs int, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var scratch [objSlabHeaderSize]byte
	copy(scratch[:8], objSlabMagic)
	binary.LittleEndian.PutUint32(scratch[8:], objSlabVersion)
	binary.LittleEndian.PutUint64(scratch[16:], uint64(len(objects)))
	binary.LittleEndian.PutUint64(scratch[24:], uint64(numAttrs))
	if _, err := w.Write(scratch[:]); err != nil {
		return err
	}
	for _, o := range objects {
		rec := scratch[:objLocSize]
		clear(rec)
		binary.LittleEndian.PutUint32(rec[0:], uint32(o.Loc.Edge))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(o.Loc.Offset))
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	for _, o := range objects {
		if len(o.Attrs) != numAttrs {
			return fmt.Errorf("graph: object %d has %d attributes, want %d", o.ID, len(o.Attrs), numAttrs)
		}
		for _, a := range o.Attrs {
			binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(a))
			if _, err := w.Write(scratch[:8]); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// sliceObjects decodes data (a full objects-slab image). When alias is true
// the Attrs slices point into data; data must then stay mapped for the
// objects' lifetime.
func sliceObjects(data []byte, alias bool) ([]Object, int, error) {
	if len(data) < objSlabHeaderSize || string(data[:8]) != objSlabMagic {
		return nil, 0, fmt.Errorf("graph: %w: not an objects slab", storage.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != objSlabVersion {
		return nil, 0, fmt.Errorf("graph: %w: objects slab version %d, want %d", storage.ErrCorrupt, v, objSlabVersion)
	}
	no := binary.LittleEndian.Uint64(data[16:])
	na := binary.LittleEndian.Uint64(data[24:])
	want := uint64(objSlabHeaderSize) + no*objLocSize + no*na*8
	if no > uint64(math.MaxInt32) || na > 1<<20 || uint64(len(data)) != want {
		return nil, 0, fmt.Errorf("graph: %w: objects slab is %d bytes, header describes %d", storage.ErrCorrupt, len(data), want)
	}
	numObjs, numAttrs := int(no), int(na)
	attrsOff := objSlabHeaderSize + numObjs*objLocSize
	var attrs []float64
	total := numObjs * numAttrs
	if total > 0 {
		if alias {
			attrs = unsafe.Slice((*float64)(unsafe.Pointer(&data[attrsOff])), total)
		} else {
			attrs = make([]float64, total)
			for i := range attrs {
				attrs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[attrsOff+i*8:]))
			}
		}
	}
	objects := make([]Object, numObjs)
	for i := range objects {
		rec := data[objSlabHeaderSize+i*objLocSize:]
		objects[i] = Object{
			ID: ObjectID(i),
			Loc: Location{
				Edge:   EdgeID(int32(binary.LittleEndian.Uint32(rec[0:]))),
				Offset: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
			},
		}
		if numAttrs > 0 {
			objects[i].Attrs = attrs[i*numAttrs : (i+1)*numAttrs : (i+1)*numAttrs]
		}
	}
	return objects, numAttrs, nil
}

// OpenObjects memory-maps the objects slab at path. On little-endian hosts
// every Attrs slice aliases the mapping (the attribute matrix never touches
// the heap; the objects must not be used after close); elsewhere, or when
// mapping fails, the slab is decoded onto the heap.
func OpenObjects(path string) ([]Object, int, func() error, error) {
	noop := func() error { return nil }
	data, unmap, err := storage.MapFile(path)
	if err != nil {
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, 0, nil, fmt.Errorf("graph: %w (mmap also failed: %v)", rerr, err)
		}
		objects, numAttrs, derr := sliceObjects(raw, false)
		if derr != nil {
			return nil, 0, nil, derr
		}
		return objects, numAttrs, noop, nil
	}
	if storage.HostLittleEndian() { // all that aliasing a packed f64 section needs
		objects, numAttrs, derr := sliceObjects(data, true)
		if derr != nil {
			unmap()
			return nil, 0, nil, derr
		}
		return objects, numAttrs, unmap, nil
	}
	objects, numAttrs, derr := sliceObjects(data, false)
	unmap()
	if derr != nil {
		return nil, 0, nil, derr
	}
	return objects, numAttrs, noop, nil
}
