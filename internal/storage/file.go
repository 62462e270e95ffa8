package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
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

// PagedFile is random access storage in fixed-size pages. Implementations
// are not safe for concurrent use; each query engine owns its files.
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
	// Close releases underlying resources.
	Close() error
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

// Close implements PagedFile.
func (f *MemFile) Close() error { return nil }

// OSFile is a PagedFile backed by a file on disk, for users who want the
// graph to live outside process memory.
type OSFile struct {
	f        *os.File
	pageSize int
	numPages int
}

// CreateOSFile creates (truncating) a page file at path.
func CreateOSFile(path string, pageSize int) (*OSFile, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	return &OSFile{f: f, pageSize: pageSize}, nil
}

// OpenOSFile opens an existing page file at path.
func OpenOSFile(path string, pageSize int) (*OSFile, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of page size %d", path, st.Size(), pageSize)
	}
	return &OSFile{f: f, pageSize: pageSize, numPages: int(st.Size() / int64(pageSize))}, nil
}

// PageSize implements PagedFile.
func (f *OSFile) PageSize() int { return f.pageSize }

// NumPages implements PagedFile.
func (f *OSFile) NumPages() int { return f.numPages }

// Read implements PagedFile.
func (f *OSFile) Read(id PageID, dst []byte) error {
	if id < 0 || int(id) >= f.numPages {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, f.numPages)
	}
	if len(dst) < f.pageSize {
		return fmt.Errorf("storage: read buffer %d smaller than page size %d", len(dst), f.pageSize)
	}
	_, err := f.f.ReadAt(dst[:f.pageSize], int64(id)*int64(f.pageSize))
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// Write implements PagedFile.
func (f *OSFile) Write(id PageID, src []byte) error {
	if id < 0 || int(id) >= f.numPages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, f.numPages)
	}
	if len(src) != f.pageSize {
		return fmt.Errorf("storage: write of %d bytes, want page size %d", len(src), f.pageSize)
	}
	if _, err := f.f.WriteAt(src, int64(id)*int64(f.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Append implements PagedFile.
func (f *OSFile) Append(src []byte) (PageID, error) {
	if len(src) != f.pageSize {
		return InvalidPage, fmt.Errorf("storage: append of %d bytes, want page size %d", len(src), f.pageSize)
	}
	id := PageID(f.numPages)
	if _, err := f.f.WriteAt(src, int64(id)*int64(f.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("storage: append page %d: %w", id, err)
	}
	f.numPages++
	return id, nil
}

// Close implements PagedFile.
func (f *OSFile) Close() error { return f.f.Close() }
