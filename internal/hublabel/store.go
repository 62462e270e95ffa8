package hublabel

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"

	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// On-disk layout (little endian): the packed labeling itself, so a label
// file holds the bytes finalize built and is read by the same decode.
//
//	page 0     header: magic "GRNHUBL1", version, page size, numNodes,
//	           directed, log₂ of the graph's quantum, then per side (out,
//	           then in for directed graphs) its hub-id width, entry width
//	           and log₂ of its unit: log₂ Q plus its shift (labelSet), 0
//	           for a side whose distances are all 0
//	pages 1..  the label stream on raw pages, one contiguous run: each side's
//	           n+1 CSR offsets (int32), then its packed entries
//
// A label is the entries between two offsets: the stream bytes at the
// side's entry start plus offsets[v]·width, which may straddle pages. The
// offsets are the directory, so a Store reads them once and keeps 4 bytes a
// node and side.
//
// Write lays the header down last, over a page of zeros, so every prefix
// of an interrupted write is refused (bad magic) rather than served. The
// version is 3: version 2 kept (u32 hub, f64 distance) pairs in slotted
// chunk records, and version 1 carried distances off the quantum grid
// (graph.Graph.LogQuantum). Both are refused, and so is a file on another
// grid than the graph it is opened for.

const (
	storeVersion = 3

	// Header field offsets: magic [0:8), version [8:12), pageSize [12:16),
	// numNodes [16:20), directed [20], log₂ Q [22:24) (int16), then 4
	// bytes a side from sideAt: hubW [0], width [1], log₂ unit [2:4)
	// (int16).
	sideAt     = 24
	headerSize = sideAt + 2*4
)

// FileHeader locates the magic and page size of a persisted labeling, so
// callers can open the file with matching pages without knowing the
// original options.
var FileHeader = storage.FileHeader{Magic: "GRNHUBL1", PageSizeAt: 12}

// sides returns the labeling's distinct sides in file order: out, then in
// when directed.
func (l *Labeling) sides() []*labelSet {
	if l.directed {
		return []*labelSet{&l.out, &l.in}
	}
	return []*labelSet{&l.out}
}

// Write persists l, built over a graph whose quantum is 2^logQ, into an
// empty paged file: page 0 becomes the header and the label stream follows.
// The file is a pure function of the labeling and logQ — same input, same
// bytes. On an error the file holds a prefix of the write with no header,
// which OpenStoreBuffer refuses.
func Write(l *Labeling, f storage.PagedFile, logQ int) error {
	if f.NumPages() != 0 {
		return fmt.Errorf("hublabel: refusing to write labeling into non-empty file (%d pages)", f.NumPages())
	}
	pageSize := f.PageSize()
	if pageSize < headerSize || pageSize > storage.MaxPageSize {
		return fmt.Errorf("hublabel: page size %d outside [%d, %d], the header's size and the largest page a file header may declare", pageSize, headerSize, storage.MaxPageSize)
	}
	// Reserve page 0 for the header, written last.
	hdr := make([]byte, pageSize)
	if _, err := f.Append(hdr); err != nil {
		return err
	}
	page := make([]byte, 0, pageSize)
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
	for i, s := range l.sides() {
		offsets := make([]byte, 0, 4*len(s.offsets))
		for _, o := range s.offsets {
			offsets = binary.LittleEndian.AppendUint32(offsets, uint32(o))
		}
		if err := put(offsets); err != nil {
			return err
		}
		if err := put(s.entries[:s.size()*s.width]); err != nil {
			return err
		}
		at := hdr[sideAt+4*i:]
		at[0], at[1] = byte(s.hubW), byte(s.width)
		if s.width > s.hubW {
			binary.LittleEndian.PutUint16(at[2:], uint16(int16(logQ+int(s.shift))))
		}
	}
	runtime.KeepAlive(l) // the entries are unmapped with their labeling
	if len(page) > 0 {
		clear(page[len(page):cap(page)])
		if _, err := f.Append(page[:cap(page)]); err != nil {
			return err
		}
	}

	copy(hdr, FileHeader.Magic)
	binary.LittleEndian.PutUint32(hdr[8:], storeVersion)
	binary.LittleEndian.PutUint32(hdr[FileHeader.PageSizeAt:], uint32(pageSize))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(l.numNodes))
	if l.directed {
		hdr[20] = 1
	}
	binary.LittleEndian.PutUint16(hdr[22:], uint16(int16(logQ)))
	return f.Write(0, hdr)
}

// Store serves a persisted labeling through an LRU buffer. Its Labeling
// holds each side's offsets, widths and shift but no entries — 4 bytes a node
// and side in memory — and counts for it (NumNodes, Directed, Entries,
// AverageLabelSize, Bytes); OutLabel and InLabel read a label's bytes
// through the buffer's pool, which counts the pages, and decode them as an
// in-memory labeling does. A Store is safe for concurrent readers.
type Store struct {
	Labeling
	file   storage.PagedFile
	buffer *storage.Tenant
	logQ   int
	// entriesAt is where each side's packed entries start in the label
	// stream (out, in); an undirected store reads one side under both.
	entriesAt [2]int64
}

// OpenStoreBuffer opens a labeling previously persisted with Write,
// reading label pages through bm, which must wrap f — typically a tenant of
// the process-wide buffer pool, so label pages share frames (and stats)
// with every other substrate. It refuses a file whose header or offsets the
// packed format cannot hold: side widths out of range, a unit off the
// quantum grid or so coarse that its widest count passes 2^63, offsets
// that fall or run past the file.
func OpenStoreBuffer(f storage.PagedFile, bm *storage.Tenant) (*Store, error) {
	pageSize := f.PageSize()
	if f.NumPages() == 0 {
		return nil, fmt.Errorf("hublabel: empty label file")
	}
	if pageSize < headerSize {
		return nil, fmt.Errorf("hublabel: page size %d cannot hold the %d-byte header", pageSize, headerSize)
	}
	hdr := make([]byte, pageSize)
	if err := f.Read(0, hdr); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != FileHeader.Magic {
		return nil, fmt.Errorf("hublabel: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != storeVersion {
		return nil, fmt.Errorf("hublabel: unsupported version %d (this build reads version %d: the packed labeling on the graph's quantum); rebuild with BuildHubLabelIndex", v, storeVersion)
	}
	if ps := int(binary.LittleEndian.Uint32(hdr[FileHeader.PageSizeAt:])); ps != pageSize {
		return nil, fmt.Errorf("hublabel: label file was written with %d-byte pages, opened with %d (use FileHeader.PageSize)", ps, pageSize)
	}
	s := &Store{file: f, buffer: bm, logQ: int(int16(binary.LittleEndian.Uint16(hdr[22:])))}
	s.numNodes = int(binary.LittleEndian.Uint32(hdr[16:]))
	s.directed = hdr[20] == 1

	// The offsets are read once, through a private buffer: the pool counts
	// label reads only.
	private := storage.NewBufferPool(1).Attach("", f, 0)
	stream := int64(f.NumPages()-1) * int64(pageSize)
	var pos int64
	for i, side := range s.sides() {
		meta := hdr[sideAt+4*i:]
		side.hubW, side.width = int(meta[0]), int(meta[1])
		unitExp := int(int16(binary.LittleEndian.Uint16(meta[2:])))
		if side.hubW < 1 || side.hubW > 4 || side.width < side.hubW || side.width > side.hubW+8 {
			return nil, fmt.Errorf("hublabel: label side %d packs %d-byte entries with %d-byte hub ids, outside 1–4 hub bytes and 0–8 distance bytes: corrupt label file", i, side.width, side.hubW)
		}
		if distW := side.width - side.hubW; distW > 0 {
			if unitExp < s.logQ {
				return nil, fmt.Errorf("hublabel: label side %d counts distances in 2^%d, off the quantum 2^%d: corrupt label file", i, unitExp, s.logQ)
			}
			// Every decoded distance is a count below 2^63: below
			// graph.Inf, and two of them sum without wrapping.
			if unitExp-s.logQ+8*distW > 63 {
				return nil, fmt.Errorf("hublabel: label side %d counts distances in 2^%d with %d bytes, past 2^63 quanta of 2^%d: corrupt label file", i, unitExp, distW, s.logQ)
			}
			side.shift = uint(unitExp - s.logQ)
		}
		if 4*(int64(s.numNodes)+1) > stream-pos {
			return nil, fmt.Errorf("hublabel: the offsets of label side %d's %d nodes run past the file's %d stream bytes: corrupt label file", i, s.numNodes, stream)
		}
		raw := make([]byte, 4*(s.numNodes+1))
		if err := readStream(private, pos, raw); err != nil {
			return nil, err
		}
		pos += int64(len(raw))
		side.offsets = make([]int32, s.numNodes+1)
		for v := range side.offsets {
			side.offsets[v] = int32(binary.LittleEndian.Uint32(raw[4*v:]))
			if v == 0 && side.offsets[v] != 0 || v > 0 && side.offsets[v] < side.offsets[v-1] {
				return nil, fmt.Errorf("hublabel: label side %d: offset %d of node %d breaks the rising run from 0: corrupt label file", i, side.offsets[v], v)
			}
		}
		s.entriesAt[i] = pos
		pos += int64(side.size()) * int64(side.width)
		if pos > stream {
			return nil, fmt.Errorf("hublabel: label side %d's %d entries run past the file's %d stream bytes: corrupt label file", i, side.size(), stream)
		}
	}
	if !s.directed {
		s.in, s.entriesAt[1] = s.out, s.entriesAt[0]
	}
	return s, nil
}

// readStream copies len(dst) bytes of the label stream, from byte pos on,
// out of the pages t reads.
func readStream(t *storage.Tenant, pos int64, dst []byte) error {
	pageSize := int64(t.File().PageSize())
	for got := 0; got < len(dst); {
		at := pos + int64(got)
		err := t.ReadPage(storage.PageID(1+at/pageSize), func(page []byte) error {
			got += copy(dst[got:], page[at%pageSize:])
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// LogQuantum returns log₂ of the quantum of the graph the labels were
// built over, as Write recorded it.
func (s *Store) LogQuantum() int { return s.logQ }

// Buffer exposes the LRU buffer (cold-start experiments).
func (s *Store) Buffer() *storage.Tenant { return s.buffer }

// Close detaches the store's buffer tenant from its pool (flushing dirty
// pages and returning contributed capacity), then closes the underlying
// file. The store must not be used afterwards; Close is idempotent.
func (s *Store) Close() error {
	var detachErr error
	if s.buffer != nil {
		buffer := s.buffer
		s.buffer = nil
		detachErr = buffer.Detach()
	}
	if s.file != nil {
		file := s.file
		s.file = nil
		if err := file.Close(); err != nil && detachErr == nil {
			detachErr = err
		}
	}
	return detachErr
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
// pages they span and decoded by side.decode. A hub id past the graph or
// out of ascending order is an error: the bytes came from a file.
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
	prev := graph.NodeID(-1)
	for _, e := range buf {
		if e.Hub <= prev || int(e.Hub) >= s.numNodes {
			return nil, fmt.Errorf("hublabel: label of node %d holds hub %d after %d, outside [0,%d) or out of order: corrupt label file", n, e.Hub, prev, s.numNodes)
		}
		prev = e.Hub
	}
	return buf, nil
}

// CopyTo writes the store's file, page for page, into dst, an empty file of
// the same page size — the header last, as Write lays it down, so a copy
// that fails part way is refused at open. It reads the file directly: the
// pool counts no page of it.
func (s *Store) CopyTo(dst storage.PagedFile) error {
	pageSize := s.file.PageSize()
	if dst.NumPages() != 0 || dst.PageSize() != pageSize {
		return fmt.Errorf("hublabel: copy of a label file with %d-byte pages needs an empty file of that page size, not %d pages of %d bytes", pageSize, dst.NumPages(), dst.PageSize())
	}
	page := make([]byte, pageSize)
	if _, err := dst.Append(page); err != nil {
		return err
	}
	for id := storage.PageID(1); int(id) < s.file.NumPages(); id++ {
		if err := s.file.Read(id, page); err != nil {
			return err
		}
		if _, err := dst.Append(page); err != nil {
			return err
		}
	}
	if err := s.file.Read(0, page); err != nil {
		return err
	}
	return dst.Write(0, page)
}
