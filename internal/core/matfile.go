package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// This file persists a materialization into a single paged file, so that a
// restart serves the K-NN lists without paying the all-NN build again, and
// implements the crash half of the repair journal: maintenance commits
// flush the list pages and flip one header bit, and an uncommitted
// operation found at open is rolled back from the journal's before-images.
//
// File layout (all regions page-aligned, fixed once written):
//
//	page 0                      header (magic, geometry, point count,
//	                            journal seq + pending flag — the flag is
//	                            the single-page-write commit flip)
//	pages 1 .. R                list locators: one RecRef (page, slot) per
//	                            node, pointing into the list region
//	pages R+1 .. R+L            the list pages, copied verbatim from the
//	                            build-time file
//	pages R+L+1 ..              the tracked point set: one fixed 16-byte
//	                            record per point id (tombstones included),
//	                            updated in place at commit time; this is
//	                            the only region that grows
//
// The journal lives in its own paged file next to the materialization
// (the public layer names it <path>.journal).

// Kinds of tracked point sets, stored in the header so reopening rebuilds
// the right set.
const (
	MatKindNode byte = 0
	MatKindEdge byte = 1
)

// PointRecord is the persisted location of one tracked point: the hosting
// node (U == V) for node-resident sets, the canonical edge and offset for
// edge-resident sets. U < 0 marks a deleted or never-committed id.
type PointRecord struct {
	U, V graph.NodeID
	Pos  float64
}

// PointAbsent is the tombstone record of a deleted point.
var PointAbsent = PointRecord{U: -1, V: -1}

const (
	matHeaderSize   = 42
	matRefSize      = 4 + 2
	pointRecordSize = 4 + 4 + 8
)

// MatFileHeader locates the magic and page size of a materialization file,
// so reopening needs no recollection of the build-time options. The magic's
// digit is the format: "GRNNMAT1" files predate the quantum grid
// (graph.Builder), so their list distances and point offsets lie off it and
// they are refused as foreign.
var MatFileHeader = storage.FileHeader{Magic: "GRNNMAT2", PageSizeAt: 8}

// Journal record kinds (first payload byte).
const (
	jrecMeta        byte = 1 // opaque operation descriptor from the caller
	jrecBeforeImage byte = 2 // node id + pre-operation list entries
	jrecPointImage  byte = 3 // point id + pre-operation point record
)

func encodePointImage(p points.PointID, rec PointRecord) []byte {
	buf := make([]byte, 1+4+pointRecordSize)
	buf[0] = jrecPointImage
	binary.LittleEndian.PutUint32(buf[1:], uint32(p))
	encodePointRecord(buf[5:], rec)
	return buf
}

func decodePointImage(payload []byte) (points.PointID, PointRecord, error) {
	if len(payload) < 1+4+pointRecordSize || payload[0] != jrecPointImage {
		return 0, PointRecord{}, fmt.Errorf("core: malformed journal point-image record")
	}
	return points.PointID(binary.LittleEndian.Uint32(payload[1:])), decodePointRecord(payload[5:]), nil
}

func encodeBeforeImage(n graph.NodeID, entries []MatEntry) []byte {
	buf := make([]byte, 5, 5+matRecordSize(len(entries)))
	buf[0] = jrecBeforeImage
	binary.LittleEndian.PutUint32(buf[1:], uint32(n))
	return appendMatList(buf, entries)
}

func decodeBeforeImage(p []byte) (graph.NodeID, []MatEntry, error) {
	if len(p) < 5 || p[0] != jrecBeforeImage {
		return 0, nil, fmt.Errorf("core: malformed journal before-image record")
	}
	n := graph.NodeID(binary.LittleEndian.Uint32(p[1:]))
	entries, err := DecodeMatList(p[5:], nil)
	if err != nil {
		return 0, nil, fmt.Errorf("core: truncated journal before-image record for node %d: %w", n, err)
	}
	return n, entries, nil
}

// matPersist is the persistence state of a file-backed materialization.
type matPersist struct {
	file    storage.PagedFile
	journal *storage.Journal

	pending   bool
	seq       uint64
	kind      byte
	numPoints int // dense point-id space, tombstones included
	refsPages int
	listPages int

	// durable upgrades maintenance from write-ordering to fsync
	// durability: journal appends sync the journal file, and each header
	// flip syncs the materialization file — which also pushes every list
	// and point-region write issued before the flip. See SetDurable.
	durable bool

	scratch []byte // one page, for direct header/point-region writes
}

func (pst *matPersist) pageSize() int { return pst.file.PageSize() }

func (pst *matPersist) pointBase() int { return 1 + pst.refsPages + pst.listPages }

// writeHeader encodes the header and writes page 0 — the commit flip when
// the pending bit changes.
func (pst *matPersist) writeHeader(m *Materialized, seq uint64, pending bool) error {
	buf := pst.scratch
	for i := range buf {
		buf[i] = 0
	}
	copy(buf[0:8], MatFileHeader.Magic)
	binary.LittleEndian.PutUint32(buf[MatFileHeader.PageSizeAt:], uint32(pst.pageSize()))
	binary.LittleEndian.PutUint32(buf[12:], uint32(m.maxK))
	binary.LittleEndian.PutUint32(buf[16:], uint32(m.numNodes))
	buf[20] = pst.kind
	if pending {
		buf[21] = 1
	}
	binary.LittleEndian.PutUint64(buf[22:], seq)
	binary.LittleEndian.PutUint32(buf[30:], uint32(pst.numPoints))
	binary.LittleEndian.PutUint32(buf[34:], uint32(pst.refsPages))
	binary.LittleEndian.PutUint32(buf[38:], uint32(pst.listPages))
	if err := pst.file.Write(0, buf); err != nil {
		return err
	}
	if !pst.durable {
		return nil
	}
	// One sync covers the flip and every list/point write issued before
	// it: fsync flushes all writes already issued to the file.
	return storage.SyncFile(pst.file)
}

// readPointRecord returns the persisted record of p; ids beyond the
// committed count (fresh allocations) read as PointAbsent.
func (pst *matPersist) readPointRecord(p points.PointID) (PointRecord, error) {
	if p < 0 {
		return PointRecord{}, fmt.Errorf("core: negative point id %d", p)
	}
	if int(p) >= pst.numPoints {
		return PointAbsent, nil
	}
	perPage := pst.pageSize() / pointRecordSize
	page := storage.PageID(pst.pointBase() + int(p)/perPage)
	if err := pst.file.Read(page, pst.scratch); err != nil {
		return PointRecord{}, err
	}
	return decodePointRecord(pst.scratch[(int(p)%perPage)*pointRecordSize:]), nil
}

// writePointRecord updates the point region record of p in place, growing
// the region by tombstone-filled pages when p is a fresh id.
func (pst *matPersist) writePointRecord(p points.PointID, rec PointRecord) error {
	if p < 0 {
		return fmt.Errorf("core: negative point id %d", p)
	}
	perPage := pst.pageSize() / pointRecordSize
	page := storage.PageID(pst.pointBase() + int(p)/perPage)
	for pst.file.NumPages() <= int(page) {
		for i := range pst.scratch {
			pst.scratch[i] = 0xFF // decodes as PointAbsent
		}
		if _, err := pst.file.Append(pst.scratch); err != nil {
			return err
		}
	}
	if err := pst.file.Read(page, pst.scratch); err != nil {
		return err
	}
	encodePointRecord(pst.scratch[(int(p)%perPage)*pointRecordSize:], rec)
	if err := pst.file.Write(page, pst.scratch); err != nil {
		return err
	}
	if int(p) >= pst.numPoints {
		pst.numPoints = int(p) + 1
	}
	return nil
}

func encodePointRecord(buf []byte, rec PointRecord) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(rec.U))
	binary.LittleEndian.PutUint32(buf[4:], uint32(rec.V))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(rec.Pos))
}

func decodePointRecord(buf []byte) PointRecord {
	return PointRecord{
		U:   graph.NodeID(int32(binary.LittleEndian.Uint32(buf[0:]))),
		V:   graph.NodeID(int32(binary.LittleEndian.Uint32(buf[4:]))),
		Pos: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
	}
}

// checkJournalable verifies a full list's before-image fits one journal
// record of the given page size: a persisted materialization whose lists
// cannot be journaled would accept every build/open and then fail every
// maintenance operation, so it is rejected up front.
func checkJournalable(cap, pageSize int) error {
	if need := 5 + matRecordSize(cap); need > storage.JournalMaxRecord(pageSize) {
		return fmt.Errorf("core: K=%d list before-images (%d bytes) do not fit journal records of page size %d; persistence needs a larger page size",
			cap-1, need, pageSize)
	}
	return nil
}

// SetDurable selects the durability level of a file-backed
// materialization's maintenance. Off (the default) relies on write
// ordering alone: a process crash is recoverable because the journal
// record is written before the list page, but an OS crash or power loss
// may reorder what actually reaches the platter. On, every journal append
// syncs the journal file and every header flip syncs the materialization
// file, so a committed operation survives power loss. No-op (and
// harmless) on a memory-backed materialization.
func (m *Materialized) SetDurable(on bool) {
	if m.pst == nil {
		return
	}
	m.pst.durable = on
	m.pst.journal.SetSync(on)
}

// MatSave serializes m — lists, list locators and the tracked point set —
// into file (which must be empty), ready for MatOpen in a later process.
// kind records which point-set shape pts describes. Only materializations
// built in this process can be saved; a reopened one is already persisted.
func MatSave(m *Materialized, kind byte, pts []PointRecord, file storage.PagedFile) error {
	if m.pst != nil {
		return fmt.Errorf("core: materialization is already file-backed")
	}
	if m.RepairPending() {
		return fmt.Errorf("core: unrecovered maintenance operation pending; recover before saving")
	}
	if file.NumPages() != 0 {
		return fmt.Errorf("core: MatSave needs an empty file, got %d pages", file.NumPages())
	}
	pageSize := file.PageSize()
	src := m.bm.File()
	if pageSize != src.PageSize() {
		return fmt.Errorf("core: page size %d does not match the list file's %d", pageSize, src.PageSize())
	}
	if err := checkJournalable(m.cap, pageSize); err != nil {
		return err
	}
	if err := m.bm.Flush(); err != nil {
		return err
	}

	refsPerPage := pageSize / matRefSize
	refsPages := (m.numNodes + refsPerPage - 1) / refsPerPage
	listPages := src.NumPages()
	perPage := pageSize / pointRecordSize
	pst := &matPersist{
		file:      file,
		kind:      kind,
		numPoints: len(pts),
		refsPages: refsPages,
		listPages: listPages,
		scratch:   make([]byte, pageSize),
	}

	// Header first (pages append in layout order), then locators with
	// their page ids rebased past header and locator regions.
	if err := pst.writeHeaderAppend(m); err != nil {
		return err
	}
	buf := make([]byte, pageSize)
	base := 1 + refsPages
	for p := 0; p < refsPages; p++ {
		for i := range buf {
			buf[i] = 0
		}
		for i := 0; i < refsPerPage; i++ {
			n := p*refsPerPage + i
			if n >= m.numNodes {
				break
			}
			ref := m.refs[n]
			binary.LittleEndian.PutUint32(buf[i*matRefSize:], uint32(int(ref.Page)+base))
			binary.LittleEndian.PutUint16(buf[i*matRefSize+4:], ref.Slot)
		}
		if _, err := file.Append(buf); err != nil {
			return err
		}
	}
	for p := 0; p < listPages; p++ {
		if err := src.Read(storage.PageID(p), buf); err != nil {
			return err
		}
		if _, err := file.Append(buf); err != nil {
			return err
		}
	}
	for off := 0; off < len(pts); off += perPage {
		for i := range buf {
			buf[i] = 0xFF // tombstone padding
		}
		for i := 0; i < perPage && off+i < len(pts); i++ {
			encodePointRecord(buf[i*pointRecordSize:], pts[off+i])
		}
		if _, err := file.Append(buf); err != nil {
			return err
		}
	}
	return nil
}

// writeHeaderAppend appends the header as page 0 of a fresh file.
func (pst *matPersist) writeHeaderAppend(m *Materialized) error {
	if _, err := pst.file.Append(pst.scratch); err != nil {
		return err
	}
	return pst.writeHeader(m, 0, false)
}

// MatOpen deserializes a materialization previously written by MatSave.
// bm must wrap file (typically a tenant of the shared buffer pool);
// journalFile is the repair journal accompanying the file. When the header
// records an uncommitted maintenance operation — a crash mid-repair — the
// operation is rolled back from the journal before the lists are served.
// It returns the materialization, the point-set kind, and the persisted
// point records (dense by point id, PointAbsent tombstones included).
func MatOpen(file storage.PagedFile, bm *storage.Tenant, journalFile storage.PagedFile) (*Materialized, byte, []PointRecord, error) {
	pageSize := file.PageSize()
	if file.NumPages() == 0 || pageSize < matHeaderSize {
		return nil, 0, nil, fmt.Errorf("core: not a materialization file")
	}
	buf := make([]byte, pageSize)
	if err := file.Read(0, buf); err != nil {
		return nil, 0, nil, err
	}
	if string(buf[0:8]) != MatFileHeader.Magic {
		return nil, 0, nil, fmt.Errorf("core: bad materialization file magic")
	}
	if got := int(binary.LittleEndian.Uint32(buf[MatFileHeader.PageSizeAt:])); got != pageSize {
		return nil, 0, nil, fmt.Errorf("core: file was written with page size %d, opened with %d", got, pageSize)
	}
	maxK := int(binary.LittleEndian.Uint32(buf[12:]))
	numNodes := int(binary.LittleEndian.Uint32(buf[16:]))
	pst := &matPersist{
		file:      file,
		journal:   storage.NewJournal(journalFile),
		kind:      buf[20],
		pending:   buf[21] != 0,
		seq:       binary.LittleEndian.Uint64(buf[22:]),
		numPoints: int(binary.LittleEndian.Uint32(buf[30:])),
		refsPages: int(binary.LittleEndian.Uint32(buf[34:])),
		listPages: int(binary.LittleEndian.Uint32(buf[38:])),
		scratch:   make([]byte, pageSize),
	}
	if maxK < 1 || numNodes < 0 || pst.numPoints < 0 {
		return nil, 0, nil, fmt.Errorf("core: corrupt materialization header")
	}
	if err := checkJournalable(maxK+1, pageSize); err != nil {
		return nil, 0, nil, err
	}
	// Region geometry must fit the file before anything is sized off it: a
	// corrupt header could otherwise demand an absurd allocation (refs,
	// point table) or send recovery appending pages toward a far-off point
	// region.
	refsPerPage := pageSize / matRefSize
	perPage := pageSize / pointRecordSize
	pointPages := (pst.numPoints + perPage - 1) / perPage
	switch {
	case pst.refsPages < 0 || pst.listPages < 0:
		return nil, 0, nil, fmt.Errorf("core: corrupt materialization header: negative region size")
	case numNodes > pst.refsPages*refsPerPage:
		return nil, 0, nil, fmt.Errorf("core: corrupt materialization header: %d nodes exceed %d locator pages", numNodes, pst.refsPages)
	case pst.pointBase()+pointPages > file.NumPages():
		return nil, 0, nil, fmt.Errorf("core: corrupt materialization header: regions exceed the file's %d pages", file.NumPages())
	}

	m := &Materialized{maxK: maxK, cap: maxK + 1, numNodes: numNodes, bm: bm, pst: pst}
	m.refs = make([]storage.RecRef, numNodes)
	for n := 0; n < numNodes; n++ {
		page := 1 + n/refsPerPage
		if n%refsPerPage == 0 {
			if err := file.Read(storage.PageID(page), buf); err != nil {
				return nil, 0, nil, err
			}
		}
		off := (n % refsPerPage) * matRefSize
		m.refs[n] = storage.RecRef{
			Page: storage.PageID(binary.LittleEndian.Uint32(buf[off:])),
			Slot: binary.LittleEndian.Uint16(buf[off+4:]),
		}
		if int(m.refs[n].Page) <= pst.refsPages || int(m.refs[n].Page) > pst.refsPages+pst.listPages {
			return nil, 0, nil, fmt.Errorf("core: list locator of node %d outside the list region", n)
		}
	}

	if pst.pending {
		if err := m.recoverFromJournal(); err != nil {
			return nil, 0, nil, fmt.Errorf("core: journal recovery: %w", err)
		}
	}

	pts := make([]PointRecord, pst.numPoints)
	for p := 0; p < pst.numPoints; p++ {
		page := pst.pointBase() + p/perPage
		if p%perPage == 0 {
			if err := file.Read(storage.PageID(page), buf); err != nil {
				return nil, 0, nil, err
			}
		}
		pts[p] = decodePointRecord(buf[(p%perPage)*pointRecordSize:])
	}
	return m, pst.kind, pts, nil
}

// recoverFromJournal rolls back the uncommitted operation recorded in the
// header by restoring the journal's before-images, then flips the header
// clean. Idempotent: a crash during recovery replays it on the next open.
func (m *Materialized) recoverFromJournal() error {
	pst := m.pst
	records := 0
	err := pst.journal.Replay(pst.seq, func(payload []byte) error {
		records++
		if len(payload) == 0 {
			return nil
		}
		switch payload[0] {
		case jrecBeforeImage:
			n, entries, err := decodeBeforeImage(payload)
			if err != nil {
				return err
			}
			if n < 0 || int(n) >= m.numNodes {
				return fmt.Errorf("core: journal names node %d of %d", n, m.numNodes)
			}
			return m.restoreList(n, entries)
		case jrecPointImage:
			// The commit reached its point-region write before dying;
			// undo it. Fresh ids (beyond the committed count) need no
			// restore — the header's numPoints never saw them.
			p, old, err := decodePointImage(payload)
			if err != nil {
				return err
			}
			if int(p) < pst.numPoints {
				return pst.writePointRecord(p, old)
			}
			return nil
		}
		return nil
	})
	if err != nil {
		return err
	}
	if records == 0 {
		// The header flips to pending only after the operation's first
		// journal record is durable, so a pending header with no matching
		// records means the journal file is missing or truncated — do not
		// silently declare the lists clean.
		return fmt.Errorf("core: header records operation %d but the journal holds no records for it", pst.seq)
	}
	if err := m.bm.Flush(); err != nil {
		return err
	}
	if err := pst.writeHeader(m, pst.seq, false); err != nil {
		return err
	}
	pst.pending = false
	return nil
}
