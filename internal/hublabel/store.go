package hublabel

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"

	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// Paged layout: the packed labeling itself, so label pages hold the bytes
// finalize built and are read by the same decode. From page 0 on, one
// contiguous stream on raw pages: each side's n+1 CSR offsets (int32, little
// endian), then its packed entries — out, then in for a directed labeling.
// A label is the entries between two offsets: the stream bytes at the side's
// entry start plus offsets[v]·width, which may straddle pages. The pages are
// a cache for the life of the process; the store keeps the offsets, widths
// and shifts in memory, so nothing on a page describes the others.

// sides returns the labeling's distinct sides in stream order: out, then in
// when directed.
func (l *Labeling) sides() []*labelSet {
	if l.directed {
		return []*labelSet{&l.out, &l.in}
	}
	return []*labelSet{&l.out}
}

// Store serves a labeling from pages read through an LRU buffer. Its
// Labeling holds each side's offsets, widths and shift but no entries — 4
// bytes a node and side in memory — and counts for it (NumNodes, Directed,
// Entries, AverageLabelSize, Bytes); OutLabel and InLabel read a label's
// bytes through the buffer's pool, which counts the pages, and decode them
// as an in-memory labeling does. A Store is safe for concurrent readers.
type Store struct {
	Labeling
	buffer *storage.Tenant
	// entriesAt is where each side's packed entries start in the label
	// stream (out, in); an undirected store reads one side under both.
	entriesAt [2]int64
}

// NewStore streams l onto the pages of f, which must be empty, and serves
// it back through bm, which must wrap f — typically a tenant of the
// process-wide buffer pool, so label pages share frames (and stats) with
// every other substrate. The pages are a pure function of the labeling. The
// store takes l's offsets and widths, not its entries, so it does not keep
// l alive.
func NewStore(l *Labeling, f storage.PagedFile, bm *storage.Tenant) (*Store, error) {
	if f.NumPages() != 0 {
		return nil, fmt.Errorf("hublabel: refusing to write labeling into non-empty file (%d pages)", f.NumPages())
	}
	page := make([]byte, 0, f.PageSize())
	put := func(b []byte) error {
		for len(b) > 0 {
			n := copy(page[len(page):cap(page)], b)
			page, b = page[:len(page)+n], b[n:]
			if len(page) == cap(page) {
				if _, err := f.Append(page); err != nil {
					return err
				}
				page = page[:0]
			}
		}
		return nil
	}
	s := &Store{Labeling: *l, buffer: bm}
	s.out.entries, s.in.entries = nil, nil // the pages hold them
	var pos int64
	for i, side := range l.sides() {
		offsets := make([]byte, 0, 4*len(side.offsets))
		for _, o := range side.offsets {
			offsets = binary.LittleEndian.AppendUint32(offsets, uint32(o))
		}
		entries := side.entries[:side.size()*side.width]
		if err := put(offsets); err != nil {
			return nil, err
		}
		if err := put(entries); err != nil {
			return nil, err
		}
		pos += int64(len(offsets))
		s.entriesAt[i] = pos
		pos += int64(len(entries))
	}
	runtime.KeepAlive(l) // the entries are unmapped with their labeling
	if len(page) > 0 {
		clear(page[len(page):cap(page)])
		if _, err := f.Append(page[:cap(page)]); err != nil {
			return nil, err
		}
	}
	if !s.directed {
		s.entriesAt[1] = s.entriesAt[0]
	}
	return s, nil
}

// readStream copies len(dst) bytes of the label stream, from byte pos on,
// out of the pages t reads.
func readStream(t *storage.Tenant, pos int64, dst []byte) error {
	pageSize := int64(t.File().PageSize())
	for got := 0; got < len(dst); {
		at := pos + int64(got)
		err := t.ReadPage(storage.PageID(at/pageSize), func(page []byte) error {
			got += copy(dst[got:], page[at%pageSize:])
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Buffer exposes the LRU buffer (cold-start experiments).
func (s *Store) Buffer() *storage.Tenant { return s.buffer }

// Close detaches the store's buffer tenant from its pool, releasing its
// frames and returning any contributed capacity. The store must not be used
// afterwards; Close is idempotent.
func (s *Store) Close() error {
	if s.buffer == nil {
		return nil
	}
	buffer := s.buffer
	s.buffer = nil
	return buffer.Detach()
}

// OutLabel implements Source.
func (s *Store) OutLabel(n graph.NodeID, buf []Entry) ([]Entry, error) {
	return s.read(&s.out, s.entriesAt[0], n, buf)
}

// InLabel implements Source.
func (s *Store) InLabel(n graph.NodeID, buf []Entry) ([]Entry, error) {
	return s.read(&s.in, s.entriesAt[1], n, buf)
}

// labelScratch is the label size, in packed bytes, that read gathers on
// the stack; a longer label gets a heap buffer.
const labelScratch = 1024

// read decodes the label of node n on side, whose entries start at byte
// entriesAt of the stream, into buf: its bytes are gathered out of the
// pages they span and decoded by side.decode.
func (s *Store) read(side *labelSet, entriesAt int64, n graph.NodeID, buf []Entry) ([]Entry, error) {
	if n < 0 || int(n) >= s.numNodes {
		return nil, fmt.Errorf("hublabel: node %d out of range [0,%d)", n, s.numNodes)
	}
	lo, hi := int(side.offsets[n]), int(side.offsets[n+1])
	buf = slices.Grow(buf[:0], hi-lo)[:hi-lo]
	if lo == hi {
		return buf, nil
	}
	size := (hi - lo) * side.width
	var scratch [labelScratch + labelSlack]byte
	raw := scratch[:]
	if size > labelScratch {
		raw = make([]byte, size+labelSlack)
	}
	if err := readStream(s.buffer, entriesAt+int64(lo)*int64(side.width), raw[:size]); err != nil {
		return nil, err
	}
	side.decode(buf, raw)
	return buf, nil
}
