//go:build unix

package storage

import (
	"fmt"
	"os"
	"syscall"
)

// MapFile memory-maps the whole file at path read-only and returns the
// mapping with its unmap function. The file descriptor is closed before
// returning (the mapping keeps the pages reachable). Other packages reuse
// it for files that are not page-structured (a network directory's slab);
// page files go through OpenMmapFile, which adds the page-alignment checks.
func MapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	if st.Size() == 0 {
		return nil, func() error { return nil }, nil
	}
	if int64(int(st.Size())) != st.Size() {
		return nil, nil, fmt.Errorf("storage: %s too large to map (%d bytes)", path, st.Size())
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
