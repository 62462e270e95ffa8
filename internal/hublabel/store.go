package hublabel

import (
	"encoding/binary"
	"fmt"

	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// On-disk layout (little endian), built on the repository's generic slotted
// pages so labelings survive process restarts:
//
//	page 0          header: magic "GRNHUBL1", version, page size, numNodes,
//	                directed, a zero byte, log₂ of the graph's quantum,
//	                directory start page, directory page count, entry
//	                total, label payload bytes
//	pages 1..D-1    label chunk records in node order (out label, then in
//	                label for directed graphs); one record holds
//	                [flags u8][count u16] followed by count×[hub u32][dist
//	                f64] pairs, the (id, float64) codec of every paged file;
//	                flag bit 0 = more chunks follow in the next slot
//	pages D..       the directory: one packed 8-byte entry per label
//	                ([page i32][slot u16][pad u16]) pointing at the first
//	                chunk of each node's label, node-major, out before in
//
// Chunks of one label always occupy consecutive slots (continuing at slot 0
// of the next page), so a reader only needs the first chunk's address.
//
// Header byte 21 once selected a second chunk body, a delta+varint hub
// encoding; it went when the landmark order made the fixed-width labels
// smaller than the encoded ones had been. The byte is always written 0 and a
// file carrying anything else is refused at open. Write lays the header down
// last, over a page of zeros, so every prefix of an interrupted write is
// refused too (bad magic) rather than served.
//
// Version 2 records log₂ Q, the quantum of the graph the labels were built
// over (graph.Graph.LogQuantum): every label distance is a multiple of Q.
// Version 1 files predate the grid and carry distances off it, so they are
// refused, and so is a file on another grid than the graph it is opened
// for.

const (
	storeVersion = 2

	// Header field offsets: magic [0:8), version [8:12), pageSize [12:16),
	// numNodes [16:20), directed [20], zero [21], log₂ Q [22:24) (int16),
	// dirStart [24:28), dirPages [28:32), entries [32:40),
	// payloadBytes [40:48).
	headerSize   = 48
	dirEntrySize = 8
	chunkHeader  = 1 + 2

	flagMore = 1
)

// FileHeader locates the magic and page size of a persisted labeling, so
// callers can open the file with matching pages without knowing the
// original options.
var FileHeader = storage.FileHeader{Magic: "GRNHUBL1", PageSizeAt: 12}

// Write persists l, built over a graph whose quantum is 2^logQ, into an
// empty paged file: page 0 becomes the header, label and directory pages
// follow. The encoded byte stream is a pure function of the labeling and
// logQ — same input, same file. On an error the file holds a prefix of the
// write with no header, which OpenStoreBuffer refuses.
func Write(l *Labeling, f storage.PagedFile, logQ int) error {
	if f.NumPages() != 0 {
		return fmt.Errorf("hublabel: refusing to write labeling into non-empty file (%d pages)", f.NumPages())
	}
	pageSize := f.PageSize()
	if pageSize < headerSize {
		return fmt.Errorf("hublabel: page size %d cannot hold the %d-byte header", pageSize, headerSize)
	}
	w, err := storage.NewRecordWriter(f, chunkHeader+storage.PairSize)
	if err != nil {
		return err
	}
	// Reserve page 0 for the header, written last.
	hdr := make([]byte, pageSize)
	if err := w.AppendPage(hdr); err != nil {
		return err
	}

	sides := 1
	if l.directed {
		sides = 2
	}
	dir := make([]storage.RecRef, l.numNodes*sides)
	var payload uint64
	var rec []byte

	// writeLabel packs a label greedily: each chunk takes as many entries
	// as the page under construction has room for, and a fresh page (which
	// NewRecordWriter checked holds at least one) is opened when none fits.
	writeLabel := func(di int, label []Entry) error {
		for first := true; ; first = false {
			avail := w.Free() - chunkHeader
			if avail < storage.PairSize && !w.Empty() {
				if err := w.Flush(); err != nil {
					return err
				}
				avail = w.Free() - chunkHeader
			}
			count := min(avail/storage.PairSize, len(label))
			more := count < len(label)
			rec = append(rec[:0], 0, 0, 0)
			if more {
				rec[0] = flagMore
			}
			binary.LittleEndian.PutUint16(rec[1:], uint16(count))
			for _, e := range label[:count] {
				rec = storage.AppendPair(rec, int32(e.Hub), e.Dist)
			}
			ref, err := w.Add(rec)
			if err != nil {
				return err
			}
			payload += uint64(len(rec))
			if first {
				dir[di] = ref
			}
			if label = label[count:]; !more {
				return nil
			}
		}
	}

	var buf []Entry
	for v := graph.NodeID(0); int(v) < l.numNodes; v++ {
		buf = l.out.label(v, buf)
		if err := writeLabel(int(v)*sides, buf); err != nil {
			return err
		}
		if l.directed {
			buf = l.in.label(v, buf)
			if err := writeLabel(int(v)*sides+1, buf); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// Directory pages.
	dirStart := w.Page()
	page := make([]byte, pageSize)
	perPage := pageSize / dirEntrySize
	for i := 0; i < len(dir); i += perPage {
		clear(page)
		for j, ref := range dir[i:min(i+perPage, len(dir))] {
			binary.LittleEndian.PutUint32(page[j*dirEntrySize:], uint32(ref.Page))
			binary.LittleEndian.PutUint16(page[j*dirEntrySize+4:], ref.Slot)
		}
		if err := w.AppendPage(page); err != nil {
			return err
		}
	}

	// Final header.
	copy(hdr, FileHeader.Magic)
	binary.LittleEndian.PutUint32(hdr[8:], storeVersion)
	binary.LittleEndian.PutUint32(hdr[FileHeader.PageSizeAt:], uint32(pageSize))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(l.numNodes))
	if l.directed {
		hdr[20] = 1
	}
	binary.LittleEndian.PutUint16(hdr[22:], uint16(int16(logQ)))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(dirStart))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(w.Page()-dirStart))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(l.Entries()))
	binary.LittleEndian.PutUint64(hdr[40:], payload)
	return f.Write(0, hdr)
}

// Store serves a persisted labeling through an LRU buffer. The directory is
// held in memory (8 bytes per label); label pages fault in on demand and
// are counted by the buffer's pool. A Store is safe for concurrent readers.
type Store struct {
	file     storage.PagedFile
	buffer   *storage.Tenant
	numNodes int
	directed bool
	logQ     int
	entries  int
	payload  int64
	dir      []storage.RecRef
}

// OpenStoreBuffer opens a labeling previously persisted with Write,
// reading label pages through bm, which must wrap f — typically a tenant of
// the process-wide buffer pool, so label pages share frames (and stats)
// with every other substrate.
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
		return nil, fmt.Errorf("hublabel: unsupported version %d (this build reads version %d: labels on the graph's quantum); rebuild with BuildHubLabelIndex", v, storeVersion)
	}
	if ps := int(binary.LittleEndian.Uint32(hdr[FileHeader.PageSizeAt:])); ps != pageSize {
		return nil, fmt.Errorf("hublabel: label file was written with %d-byte pages, opened with %d (use FileHeader.PageSize)", ps, pageSize)
	}
	numNodes := int(binary.LittleEndian.Uint32(hdr[16:]))
	directed := hdr[20] == 1
	logQ := int(int16(binary.LittleEndian.Uint16(hdr[22:])))
	if hdr[21] != 0 {
		return nil, fmt.Errorf("hublabel: label file uses codec %d (the delta+varint label codec, removed); rebuild with BuildHubLabelIndex", hdr[21])
	}
	dirStart := storage.PageID(binary.LittleEndian.Uint32(hdr[24:]))
	dirPages := int(binary.LittleEndian.Uint32(hdr[28:]))
	entries := int(binary.LittleEndian.Uint64(hdr[32:]))
	payload := int64(binary.LittleEndian.Uint64(hdr[40:]))

	sides := 1
	if directed {
		sides = 2
	}
	dir := make([]storage.RecRef, 0, numNodes*sides)
	perPage := pageSize / dirEntrySize
	page := make([]byte, pageSize)
	for p := 0; p < dirPages; p++ {
		if err := f.Read(dirStart+storage.PageID(p), page); err != nil {
			return nil, err
		}
		for j := 0; j < perPage && len(dir) < numNodes*sides; j++ {
			off := j * dirEntrySize
			dir = append(dir, storage.RecRef{
				Page: storage.PageID(binary.LittleEndian.Uint32(page[off:])),
				Slot: binary.LittleEndian.Uint16(page[off+4:]),
			})
		}
	}
	if len(dir) != numNodes*sides {
		return nil, fmt.Errorf("hublabel: directory holds %d of %d entries", len(dir), numNodes*sides)
	}
	return &Store{
		file:     f,
		buffer:   bm,
		numNodes: numNodes,
		directed: directed,
		logQ:     logQ,
		entries:  entries,
		payload:  payload,
		dir:      dir,
	}, nil
}

// NumNodes implements Source.
func (s *Store) NumNodes() int { return s.numNodes }

// Directed implements Source.
func (s *Store) Directed() bool { return s.directed }

// LogQuantum returns log₂ of the quantum of the graph the labels were
// built over, as Write recorded it.
func (s *Store) LogQuantum() int { return s.logQ }

// Entries returns the total number of label entries (both sides).
func (s *Store) Entries() int { return s.entries }

// PayloadBytes returns the encoded label record bytes (chunk headers
// included), or 0 for files written before the counter existed.
func (s *Store) PayloadBytes() int64 { return s.payload }

// AverageLabelSize returns the mean entries per node per side.
func (s *Store) AverageLabelSize() float64 {
	if s.numNodes == 0 {
		return 0
	}
	sides := 1
	if s.directed {
		sides = 2
	}
	return float64(s.entries) / float64(s.numNodes*sides)
}

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
	sides := 1
	if s.directed {
		sides = 2
	}
	if n < 0 || int(n) >= s.numNodes {
		return nil, fmt.Errorf("hublabel: node %d out of range [0,%d)", n, s.numNodes)
	}
	return s.readLabel(s.dir[int(n)*sides], buf)
}

// InLabel implements Source.
func (s *Store) InLabel(n graph.NodeID, buf []Entry) ([]Entry, error) {
	if n < 0 || int(n) >= s.numNodes {
		return nil, fmt.Errorf("hublabel: node %d out of range [0,%d)", n, s.numNodes)
	}
	if !s.directed {
		return s.readLabel(s.dir[n], buf)
	}
	return s.readLabel(s.dir[int(n)*2+1], buf)
}

// readLabel decodes one label's chunk chain into buf, one page read per
// chunk, in the order Write stored the entries.
func (s *Store) readLabel(at storage.RecRef, buf []Entry) ([]Entry, error) {
	buf = buf[:0]
	var more, lastSlot bool
	decode := func(page, rec []byte) (err error) {
		if buf, more, err = DecodeChunk(rec, buf); err != nil {
			return fmt.Errorf("hublabel: label chunk on page %d slot %d: %w", at.Page, at.Slot, err)
		}
		lastSlot = int(at.Slot)+1 >= storage.RecordSlotCount(page)
		return nil
	}
	for {
		if err := s.buffer.ReadRecord(at, decode); err != nil {
			return nil, err
		}
		if !more {
			return buf, nil
		}
		if lastSlot {
			at = storage.RecRef{Page: at.Page + 1}
		} else {
			at.Slot++
		}
	}
}

// DecodeChunk appends the entries of one label chunk record to buf and
// reports whether the label continues in the next chunk.
func DecodeChunk(rec []byte, buf []Entry) ([]Entry, bool, error) {
	if len(rec) < chunkHeader {
		return nil, false, fmt.Errorf("truncated: %d bytes", len(rec))
	}
	pairs, err := storage.CountedPairs(rec[1:])
	if err != nil {
		return nil, false, err
	}
	for ; len(pairs) > 0; pairs = pairs[storage.PairSize:] {
		hub, dist := storage.Pair(pairs)
		buf = append(buf, Entry{Hub: graph.NodeID(hub), Dist: dist})
	}
	return buf, rec[0]&flagMore != 0, nil
}

// Load reads a persisted labeling fully into memory: the labeling Write
// was given, so writing it again with the same logQ yields the same file.
func Load(f storage.PagedFile) (*Labeling, error) {
	s, err := OpenStoreBuffer(f, storage.NewBufferPool(1).Attach("", f, 0))
	if err != nil {
		return nil, err
	}
	n := s.numNodes
	out := make([][]Entry, n)
	var in [][]Entry
	if s.directed {
		in = make([][]Entry, n)
	}
	var buf []Entry
	for v := graph.NodeID(0); int(v) < n; v++ {
		if buf, err = s.OutLabel(v, buf); err != nil {
			return nil, err
		}
		out[v] = append([]Entry(nil), buf...)
		if s.directed {
			if buf, err = s.InLabel(v, buf); err != nil {
				return nil, err
			}
			in[v] = append([]Entry(nil), buf...)
		}
	}
	return newLabeling(n, s.directed, out, in)
}
