//go:build linux || darwin

package lifestore

import (
	"bytes"
	"fmt"
	"os"
	"syscall"
)

// OpenMapped opens a snapshot with the whole file memory-mapped
// read-only instead of read through the file descriptor. Lookups then
// cost no read syscalls — the block region is paged in on demand and
// the pages are shared between every process mapping the same file, so
// N shard servers over one snapshot directory cost one page cache's
// worth of memory, not N. The mapping is private to the store and is
// released by Close.
func OpenMapped(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lifestore: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lifestore: %w", err)
	}
	size := info.Size()
	if size <= 0 {
		f.Close()
		return nil, fmt.Errorf("lifestore: opening %s: %w", path, corruptf("empty snapshot file"))
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lifestore: mmap %s: %w", path, err)
	}
	// The mapping outlives the descriptor; the file can be closed now.
	f.Close()
	st, err := NewStore(bytes.NewReader(data))
	if err != nil {
		syscall.Munmap(data)
		return nil, fmt.Errorf("lifestore: opening %s: %w", path, err)
	}
	st.closer = munmapCloser{data: data}
	return st, nil
}

// munmapCloser releases a Store's mapping.
type munmapCloser struct{ data []byte }

func (c munmapCloser) Close() error { return syscall.Munmap(c.data) }
