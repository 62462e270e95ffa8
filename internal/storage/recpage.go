package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// One paged record file. The paper's disk model — adjacency lists packed
// into pages behind a node-id index (Section 3.1), the point file of
// Fig 14b, the materialized K-NN lists of Section 4.1 — is one layout:
// records in slotted pages, found through a directory of RecRefs that their
// owner keeps, read through an LRU buffer. (Hub labels are immutable and
// carry their own directory, their CSR offsets: internal/hublabel keeps
// them on raw pages and reads them with Tenant.ReadPage.)
//
// A page is
//
//	[0:2]   uint16 record count
//	[2:..]  records growing upward, each [length u16][payload]
//	[..:N]  slot directory growing downward: slot i's record offset is the
//	        uint16 at N-2(i+1)
//
// so offsets, lengths and slot numbers are 16-bit and a page holds at most
// MaxPageSize bytes. A payload is a short fixed prefix followed by 12-byte
// (id int32, distance uint64) pairs (PairSize, AppendPair, Pair); the
// distance is the engine's count of the graph's quantum, the very count the
// in-memory twin holds. The three payloads:
//
//	adjacency fragment  [owner i32][next page i32][next slot u16] pairs (to, weight)
//	K-NN list           [count u16] pairs (point, distance), zero-padded to K+1 pairs
//	edge-point record   [count u16] pairs (point, offset), sorted by (offset, id)
//
// Fragments let an arbitrarily high-degree node (the hubs of scale-free
// BRITE-style topologies) span pages while ordinary nodes share pages with
// their graph neighbours — the locality grouping of Section 3.1. This
// package alone knows how records get into pages (RecordWriter) and out of
// them (Tenant.ReadRecord, and DiskStore.Adjacency's fragment loop on the
// same critical section); the record owners know only their payload.

const (
	pageHeaderSize = 2
	slotEntrySize  = 2
	recLenSize     = 2

	// MaxPageSize is the largest page the 16-bit offsets can address.
	MaxPageSize = math.MaxUint16
)

// RecRef locates a record on disk.
type RecRef struct {
	Page PageID
	Slot uint16
}

// InvalidRecRef marks the absence of a record reference.
var InvalidRecRef = RecRef{Page: InvalidPage}

// RecordPageBuilder assembles one slotted page.
type RecordPageBuilder struct {
	buf  []byte
	used int // bytes consumed by header + records
	nrec int
}

// NewRecordPageBuilder returns a builder for pages of pageSize bytes.
func NewRecordPageBuilder(pageSize int) *RecordPageBuilder {
	b := &RecordPageBuilder{buf: make([]byte, pageSize)}
	b.Reset()
	return b
}

// Reset clears the builder for a fresh page.
func (b *RecordPageBuilder) Reset() {
	clear(b.buf)
	b.used = pageHeaderSize
	b.nrec = 0
}

// Empty reports whether the current page holds no records.
func (b *RecordPageBuilder) Empty() bool { return b.nrec == 0 }

// FreeBytes returns the payload capacity left for one more record.
func (b *RecordPageBuilder) FreeBytes() int {
	return len(b.buf) - b.used - slotEntrySize*(b.nrec+1) - recLenSize
}

// MaxRecordPayload is the payload capacity of an empty page.
func MaxRecordPayload(pageSize int) int {
	return pageSize - pageHeaderSize - slotEntrySize - recLenSize
}

// TryAdd appends a record and returns its slot; ok is false when the record
// does not fit in the current page.
func (b *RecordPageBuilder) TryAdd(rec []byte) (slot int, ok bool) {
	if len(rec) > b.FreeBytes() {
		return 0, false
	}
	off := b.used
	binary.LittleEndian.PutUint16(b.buf[off:], uint16(len(rec)))
	copy(b.buf[off+recLenSize:], rec)
	slot = b.nrec
	binary.LittleEndian.PutUint16(b.buf[len(b.buf)-slotEntrySize*(slot+1):], uint16(off))
	b.used = off + recLenSize + len(rec)
	b.nrec++
	binary.LittleEndian.PutUint16(b.buf[0:], uint16(b.nrec))
	return slot, true
}

// Bytes returns the assembled page; the slice aliases the builder.
func (b *RecordPageBuilder) Bytes() []byte { return b.buf }

// ReadRecordSlot returns the payload of the record at slot of an encoded
// page. The slice aliases page, so in-place mutation through Tenant.Update
// is possible for fixed-size records.
func ReadRecordSlot(page []byte, slot int) ([]byte, error) {
	nrec := RecordSlotCount(page)
	if slot < 0 || slot >= nrec {
		return nil, fmt.Errorf("storage: record slot %d out of range [0,%d)", slot, nrec)
	}
	dir := len(page) - slotEntrySize*(slot+1)
	if dir < pageHeaderSize {
		return nil, fmt.Errorf("storage: corrupt page: %d records overflow %d bytes", nrec, len(page))
	}
	off := int(binary.LittleEndian.Uint16(page[dir:]))
	if off+recLenSize > len(page) {
		return nil, fmt.Errorf("storage: corrupt record slot %d offset %d", slot, off)
	}
	n := int(binary.LittleEndian.Uint16(page[off:]))
	if off+recLenSize+n > len(page) {
		return nil, fmt.Errorf("storage: corrupt record slot %d length %d", slot, n)
	}
	return page[off+recLenSize : off+recLenSize+n], nil
}

// RecordSlotCount returns the number of records in an encoded page.
func RecordSlotCount(page []byte) int {
	if len(page) < pageHeaderSize {
		return 0
	}
	return int(binary.LittleEndian.Uint16(page[0:]))
}
