package storage

import (
	"errors"
	"fmt"
)

// DefaultPageSize is the page size used throughout the experiments; the
// paper's evaluation uses 4 KB pages.
const DefaultPageSize = 4096

// PageID identifies a page within a PagedFile.
type PageID int32

// InvalidPage marks the absence of a page reference (e.g. end of an
// adjacency overflow chain).
const InvalidPage PageID = -1

// ErrPageOutOfRange is returned when a page id does not exist in the file.
var ErrPageOutOfRange = errors.New("storage: page id out of range")

// PagedFile is random access storage in fixed-size pages, a cache that
// lives as long as its process. Concurrent Reads must be safe: a pool tenant
// reads a missed page with the pool mutex released (Tenant.loadLocked), so
// the queries a DB runs at once read its files at once. Write and Append
// need exclusive access — no other call in flight — which the file's owner
// provides (a DB runs no mutating operation while queries are in flight).
type PagedFile interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Read copies page id into dst, which must be at least PageSize bytes.
	Read(id PageID, dst []byte) error
	// Write overwrites page id with src, which must be PageSize bytes.
	Write(id PageID, src []byte) error
	// Append allocates a new page holding src and returns its id.
	Append(src []byte) (PageID, error)
}

// MemFile is a PagedFile backed by main memory. It is the default substrate
// for experiments: physical I/O is *accounted* by the buffer manager (the
// cost model charges 10 ms per fault, following the paper) without paying
// for real disk access, which keeps runs deterministic.
//
// Concurrent Reads are safe; Write and Append require that no other call
// is in flight. That exclusion comes from the DB-level contract (no
// mutating operation runs while queries are in flight), not from
// buffer-pool locking — faulting Gets read the file outside the buffer
// mutex.
type MemFile struct {
	pageSize int
	pages    [][]byte
}

// NewMemFile creates an empty in-memory paged file.
func NewMemFile(pageSize int) *MemFile {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemFile{pageSize: pageSize}
}

// PageSize implements PagedFile.
func (f *MemFile) PageSize() int { return f.pageSize }

// NumPages implements PagedFile.
func (f *MemFile) NumPages() int { return len(f.pages) }

// Read implements PagedFile.
func (f *MemFile) Read(id PageID, dst []byte) error {
	if id < 0 || int(id) >= len(f.pages) {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, len(f.pages))
	}
	if len(dst) < f.pageSize {
		return fmt.Errorf("storage: read buffer %d smaller than page size %d", len(dst), f.pageSize)
	}
	copy(dst[:f.pageSize], f.pages[id])
	return nil
}

// Write implements PagedFile.
func (f *MemFile) Write(id PageID, src []byte) error {
	if id < 0 || int(id) >= len(f.pages) {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, len(f.pages))
	}
	if len(src) != f.pageSize {
		return fmt.Errorf("storage: write of %d bytes, want page size %d", len(src), f.pageSize)
	}
	copy(f.pages[id], src)
	return nil
}

// Append implements PagedFile.
func (f *MemFile) Append(src []byte) (PageID, error) {
	if len(src) != f.pageSize {
		return InvalidPage, fmt.Errorf("storage: append of %d bytes, want page size %d", len(src), f.pageSize)
	}
	page := make([]byte, f.pageSize)
	copy(page, src)
	f.pages = append(f.pages, page)
	return PageID(len(f.pages) - 1), nil
}
