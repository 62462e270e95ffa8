package hublabel

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// On-disk layout (little endian), built on the repository's generic slotted
// pages so labelings survive process restarts:
//
//	page 0          header: magic "GRNHUBL1", version, page size, numNodes,
//	                directed, label codec, directory start page, directory
//	                page count, entry total, label payload bytes
//	pages 1..D-1    label chunk records in node order (out label, then in
//	                label for directed graphs); one record holds
//	                [flags u8][count u16] followed by count entries in the
//	                file's codec, flag bit 0 = more chunks follow in the
//	                next slot
//	pages D..       the directory: one packed 8-byte entry per label
//	                ([page i32][slot u16][pad u16]) pointing at the first
//	                chunk of each node's label, node-major, out before in
//
// Chunks of one label always occupy consecutive slots (continuing at slot 0
// of the next page), so a reader only needs the first chunk's address.
//
// Codecs: codecRaw stores count×[hub u32][dist f64]. codecDelta exploits
// the hub-id-sorted label order and stores count×[uvarint hub][dist f64]
// where the first hub of a chunk is absolute and every later one is the
// gap to its predecessor — dense low-id hubs (the high-rank landmarks that
// dominate every label) shrink to one or two bytes. Each chunk restarts
// absolute, so chunks stay independently decodable. Files written before
// the codec existed carry zeros in the reserved header bytes and read back
// as codecRaw with an unknown payload size.

const (
	storeMagic   = "GRNHUBL1"
	storeVersion = 1

	// Header field offsets: magic [0:8), version [8:12), pageSize [12:16),
	// numNodes [16:20), directed [20], codec [21], pad [22:24),
	// dirStart [24:28), dirPages [28:32), entries [32:40),
	// payloadBytes [40:48).
	headerSize   = 48
	dirEntrySize = 8
	entrySize    = 4 + 8
	chunkHeader  = 1 + 2

	flagMore = 1

	codecRaw   = 0
	codecDelta = 1

	// maxVarintHub bounds one uvarint-encoded 32-bit hub id.
	maxVarintHub = 5
)

// WriteOptions tunes WriteOpt. The zero value writes the raw fixed-width
// codec, byte-compatible with files written before options existed.
type WriteOptions struct {
	// Compression switches label chunks to the delta+varint codec.
	Compression bool
}

type dirEnt struct {
	page storage.PageID
	slot uint16
}

// WriteOpt persists l into an empty paged file: page 0 becomes the header,
// label and directory pages follow. The encoded byte stream is a pure
// function of the labeling and options — same input, same file.
//
// vetrnn:deterministic
func WriteOpt(l *Labeling, f storage.PagedFile, opt WriteOptions) error {
	if f.NumPages() != 0 {
		return fmt.Errorf("hublabel: refusing to write labeling into non-empty file (%d pages)", f.NumPages())
	}
	pageSize := f.PageSize()
	maxEntryBytes := entrySize
	if opt.Compression {
		maxEntryBytes = maxVarintHub + 8
	}
	if pageSize < headerSize || storage.MaxRecordPayload(pageSize) < chunkHeader+maxEntryBytes {
		return fmt.Errorf("hublabel: page size %d cannot hold one label entry", pageSize)
	}
	// Reserve page 0 for the header.
	if _, err := f.Append(make([]byte, pageSize)); err != nil {
		return err
	}

	sides := 1
	if l.directed {
		sides = 2
	}
	dir := make([]dirEnt, l.numNodes*sides)
	builder := storage.NewRecordPageBuilder(pageSize)
	nextPage := storage.PageID(1)
	var buf []Entry

	flush := func() error {
		if builder.Empty() {
			return nil
		}
		if _, err := f.Append(builder.Bytes()); err != nil {
			return err
		}
		nextPage++
		builder.Reset()
		return nil
	}

	var payload uint64
	addChunk := func(di int, rec []byte, first bool) (bool, error) {
		slot, ok := builder.TryAdd(rec)
		if !ok {
			return first, fmt.Errorf("hublabel: label chunk of %d bytes does not fit a fresh page", len(rec))
		}
		payload += uint64(len(rec))
		if first {
			dir[di] = dirEnt{page: nextPage, slot: uint16(slot)}
		}
		return false, nil
	}

	writeRaw := func(di int, label []Entry) error {
		first := true
		for {
			// Fit as many entries as the current page allows; open a fresh
			// page when not even one fits.
			maxEntries := (builder.FreeBytes() - chunkHeader) / entrySize
			if maxEntries < 1 && !builder.Empty() {
				if err := flush(); err != nil {
					return err
				}
				maxEntries = (builder.FreeBytes() - chunkHeader) / entrySize
			}
			count := len(label)
			more := false
			if count > maxEntries {
				count = maxEntries
				more = true
			}
			rec := make([]byte, chunkHeader+count*entrySize)
			if more {
				rec[0] = flagMore
			}
			binary.LittleEndian.PutUint16(rec[1:], uint16(count))
			for i, e := range label[:count] {
				off := chunkHeader + i*entrySize
				binary.LittleEndian.PutUint32(rec[off:], uint32(e.Hub))
				binary.LittleEndian.PutUint64(rec[off+4:], math.Float64bits(e.Dist))
			}
			var err error
			if first, err = addChunk(di, rec, first); err != nil {
				return err
			}
			label = label[count:]
			if !more {
				return nil
			}
		}
	}

	// writeDelta packs entries greedily: each chunk takes as many
	// varint-delta entries as the page has room for, restarting the
	// absolute hub encoding on every chunk.
	var rec []byte
	writeDelta := func(di int, label []Entry) error {
		first := true
		for {
			avail := builder.FreeBytes() - chunkHeader
			if avail < maxVarintHub+8 && !builder.Empty() {
				if err := flush(); err != nil {
					return err
				}
				avail = builder.FreeBytes() - chunkHeader
			}
			rec = append(rec[:0], 0, 0, 0)
			count := 0
			prev := graph.NodeID(0)
			var tmp [maxVarintHub]byte
			for count < len(label) {
				e := label[count]
				d := uint64(e.Hub)
				if count > 0 {
					d = uint64(e.Hub - prev)
				}
				n := binary.PutUvarint(tmp[:], d)
				if len(rec)-chunkHeader+n+8 > avail {
					break
				}
				rec = append(rec, tmp[:n]...)
				rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(e.Dist))
				prev = e.Hub
				count++
			}
			more := count < len(label)
			if more && count == 0 {
				return fmt.Errorf("hublabel: label entry does not fit a fresh page")
			}
			if more {
				rec[0] = flagMore
			}
			binary.LittleEndian.PutUint16(rec[1:], uint16(count))
			var err error
			if first, err = addChunk(di, rec, first); err != nil {
				return err
			}
			label = label[count:]
			if !more {
				return nil
			}
		}
	}

	writeLabel := writeRaw
	codec := byte(codecRaw)
	if opt.Compression {
		writeLabel = writeDelta
		codec = codecDelta
	}

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
	if err := flush(); err != nil {
		return err
	}

	// Directory pages.
	dirStart := nextPage
	perPage := pageSize / dirEntrySize
	page := make([]byte, pageSize)
	for i := 0; i < len(dir); i += perPage {
		for j := range page {
			page[j] = 0
		}
		for j := 0; j < perPage && i+j < len(dir); j++ {
			off := j * dirEntrySize
			binary.LittleEndian.PutUint32(page[off:], uint32(dir[i+j].page))
			binary.LittleEndian.PutUint16(page[off+4:], dir[i+j].slot)
		}
		if _, err := f.Append(page); err != nil {
			return err
		}
		nextPage++
	}

	// Final header.
	hdr := make([]byte, pageSize)
	copy(hdr, storeMagic)
	binary.LittleEndian.PutUint32(hdr[8:], storeVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(pageSize))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(l.numNodes))
	if l.directed {
		hdr[20] = 1
	}
	hdr[21] = codec
	binary.LittleEndian.PutUint32(hdr[24:], uint32(dirStart))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(nextPage-dirStart))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(l.Entries()))
	binary.LittleEndian.PutUint64(hdr[40:], payload)
	return f.Write(0, hdr)
}

// FilePageSize reads the page size a persisted labeling was written with,
// so callers can open the file with matching pages without knowing the
// original options.
func FilePageSize(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, fmt.Errorf("hublabel: read header of %s: %w", path, err)
	}
	if string(hdr[:8]) != storeMagic {
		return 0, fmt.Errorf("hublabel: %s: bad magic %q", path, hdr[:8])
	}
	return int(binary.LittleEndian.Uint32(hdr[12:])), nil
}

// Store serves a persisted labeling through an LRU buffer. The directory is
// held in memory (8 bytes per label); label pages fault in on demand and
// are counted in Stats. A Store is safe for concurrent readers.
type Store struct {
	file     storage.PagedFile
	buffer   *storage.Tenant
	numNodes int
	directed bool
	entries  int
	codec    byte
	payload  int64
	dir      []dirEnt
	pageSize int
}

// OpenStore opens a labeling previously persisted with WriteOpt, reading label
// pages through a private LRU buffer of bufferPages pages. Use
// OpenStoreBuffer to serve label pages through a shared buffer pool.
func OpenStore(f storage.PagedFile, bufferPages int) (*Store, error) {
	return openStore(f, func() *storage.Tenant {
		return storage.NewBufferPool(bufferPages).Attach("", f, 0)
	})
}

// OpenStoreBuffer is OpenStore reading label pages through bm, which must
// wrap f — typically a tenant of the process-wide buffer pool, so label
// pages share frames (and stats) with every other substrate.
func OpenStoreBuffer(f storage.PagedFile, bm *storage.Tenant) (*Store, error) {
	return openStore(f, func() *storage.Tenant { return bm })
}

func openStore(f storage.PagedFile, buffer func() *storage.Tenant) (*Store, error) {
	pageSize := f.PageSize()
	if f.NumPages() == 0 {
		return nil, fmt.Errorf("hublabel: empty label file")
	}
	hdr := make([]byte, pageSize)
	if err := f.Read(0, hdr); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != storeMagic {
		return nil, fmt.Errorf("hublabel: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != storeVersion {
		return nil, fmt.Errorf("hublabel: unsupported version %d", v)
	}
	if ps := int(binary.LittleEndian.Uint32(hdr[12:])); ps != pageSize {
		return nil, fmt.Errorf("hublabel: label file was written with %d-byte pages, opened with %d (use FilePageSize)", ps, pageSize)
	}
	numNodes := int(binary.LittleEndian.Uint32(hdr[16:]))
	directed := hdr[20] == 1
	codec := hdr[21]
	if codec > codecDelta {
		return nil, fmt.Errorf("hublabel: unsupported label codec %d", codec)
	}
	dirStart := storage.PageID(binary.LittleEndian.Uint32(hdr[24:]))
	dirPages := int(binary.LittleEndian.Uint32(hdr[28:]))
	entries := int(binary.LittleEndian.Uint64(hdr[32:]))
	payload := int64(binary.LittleEndian.Uint64(hdr[40:]))

	sides := 1
	if directed {
		sides = 2
	}
	dir := make([]dirEnt, 0, numNodes*sides)
	perPage := pageSize / dirEntrySize
	page := make([]byte, pageSize)
	for p := 0; p < dirPages; p++ {
		if err := f.Read(dirStart+storage.PageID(p), page); err != nil {
			return nil, err
		}
		for j := 0; j < perPage && len(dir) < numNodes*sides; j++ {
			off := j * dirEntrySize
			dir = append(dir, dirEnt{
				page: storage.PageID(binary.LittleEndian.Uint32(page[off:])),
				slot: binary.LittleEndian.Uint16(page[off+4:]),
			})
		}
	}
	if len(dir) != numNodes*sides {
		return nil, fmt.Errorf("hublabel: directory holds %d of %d entries", len(dir), numNodes*sides)
	}
	s := &Store{
		file:     f,
		buffer:   buffer(),
		numNodes: numNodes,
		directed: directed,
		entries:  entries,
		codec:    codec,
		payload:  payload,
		dir:      dir,
		pageSize: pageSize,
	}
	return s, nil
}

// NumNodes implements Source.
func (s *Store) NumNodes() int { return s.numNodes }

// Directed implements Source.
func (s *Store) Directed() bool { return s.directed }

// Entries returns the total number of label entries (both sides).
func (s *Store) Entries() int { return s.entries }

// Compressed reports whether label chunks use the delta+varint codec.
func (s *Store) Compressed() bool { return s.codec == codecDelta }

// PayloadBytes returns the encoded label record bytes (chunk headers
// included), or 0 for files written before the counter existed.
func (s *Store) PayloadBytes() int64 { return s.payload }

// RawBytes returns what the entries occupy in the raw fixed-width codec,
// the baseline the compression ratio is measured against.
func (s *Store) RawBytes() int64 { return int64(s.entries) * entrySize }

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

// Stats returns the label-file I/O counters.
func (s *Store) Stats() storage.Stats { return s.buffer.Stats() }

// ResetStats zeroes the label-file I/O counters.
func (s *Store) ResetStats() { s.buffer.ResetStats() }

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

// readLabel decodes one label's chunk chain into buf, one pinned page
// read per chunk.
//
// vetrnn:deterministic
func (s *Store) readLabel(at dirEnt, buf []Entry) ([]Entry, error) {
	buf = buf[:0]
	pid, slot := at.page, int(at.slot)
	//lint:ignore vetrnn/execpoll record-chain walk inside the label-read primitive itself; callers poll per label fetch
	for {
		page, err := s.buffer.Pin(pid)
		if err != nil {
			return nil, err
		}
		var more bool
		buf, more, err = s.decodeChunk(page.Bytes(), pid, slot, buf)
		lastSlot := more && slot+1 >= storage.RecordSlotCount(page.Bytes())
		page.Unpin() // decodeChunk's every exit comes back through here
		if err != nil {
			return nil, err
		}
		if !more {
			return buf, nil
		}
		if lastSlot {
			pid++
			slot = 0
		} else {
			slot++
		}
	}
}

// decodeChunk appends the entries of the chunk at (pid, slot) of page to
// buf and reports whether the label continues in the next chunk.
func (s *Store) decodeChunk(page []byte, pid storage.PageID, slot int, buf []Entry) ([]Entry, bool, error) {
	rec, err := storage.ReadRecordSlot(page, s.pageSize, slot)
	if err != nil {
		return nil, false, err
	}
	if len(rec) < chunkHeader {
		return nil, false, fmt.Errorf("hublabel: truncated label chunk on page %d slot %d", pid, slot)
	}
	count := int(binary.LittleEndian.Uint16(rec[1:]))
	if s.codec == codecDelta {
		body := rec[chunkHeader:]
		prev := graph.NodeID(0)
		for i := 0; i < count; i++ {
			d, n := binary.Uvarint(body)
			if n <= 0 || len(body) < n+8 {
				return nil, false, fmt.Errorf("hublabel: corrupt label chunk on page %d slot %d", pid, slot)
			}
			hub := graph.NodeID(d)
			if i > 0 {
				hub = prev + graph.NodeID(d)
			}
			buf = append(buf, Entry{
				Hub:  hub,
				Dist: math.Float64frombits(binary.LittleEndian.Uint64(body[n:])),
			})
			prev = hub
			body = body[n+8:]
		}
	} else {
		if len(rec) < chunkHeader+count*entrySize {
			return nil, false, fmt.Errorf("hublabel: corrupt label chunk on page %d slot %d", pid, slot)
		}
		for i := 0; i < count; i++ {
			off := chunkHeader + i*entrySize
			buf = append(buf, Entry{
				Hub:  graph.NodeID(binary.LittleEndian.Uint32(rec[off:])),
				Dist: math.Float64frombits(binary.LittleEndian.Uint64(rec[off+4:])),
			})
		}
	}
	return buf, rec[0]&flagMore != 0, nil
}

// Load reads a persisted labeling fully into memory.
//
// vetrnn:deterministic
func Load(f storage.PagedFile) (*Labeling, error) {
	s, err := OpenStore(f, 1)
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
	//lint:ignore vetrnn/execpoll load-time bulk read of the whole labeling; no query context exists
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
	return newLabeling(n, s.directed, out, in), nil
}
