package storage

import (
	"encoding/binary"
	"fmt"
)

// Generic slotted pages for variable-length records, shared by the edge
// point file (Fig 14b of the paper) and the materialized K-NN list file
// (Section 4.1). Layout mirrors the adjacency pages:
//
//	[0:2]  uint16 record count
//	[2:..] records growing upward, each prefixed by a uint16 length
//	[..:N] slot directory growing downward (uint16 record offsets)

// RecordPageBuilder assembles generic slotted pages.
type RecordPageBuilder struct {
	pageSize int
	buf      []byte
	used     int
	nrec     int
}

// NewRecordPageBuilder returns a builder for pages of pageSize bytes.
func NewRecordPageBuilder(pageSize int) *RecordPageBuilder {
	b := &RecordPageBuilder{pageSize: pageSize}
	b.Reset()
	return b
}

// Reset clears the builder for a fresh page.
func (b *RecordPageBuilder) Reset() {
	if b.buf == nil {
		b.buf = make([]byte, b.pageSize)
	} else {
		for i := range b.buf {
			b.buf[i] = 0
		}
	}
	b.used = pageHeaderSize
	b.nrec = 0
}

// Empty reports whether the current page holds no records.
func (b *RecordPageBuilder) Empty() bool { return b.nrec == 0 }

// FreeBytes returns the payload capacity left for one more record.
func (b *RecordPageBuilder) FreeBytes() int {
	return b.pageSize - b.used - slotEntrySize*(b.nrec+1) - 2
}

// MaxRecordPayload is the payload capacity of an empty page.
func MaxRecordPayload(pageSize int) int {
	return pageSize - pageHeaderSize - slotEntrySize - 2
}

// TryAdd appends a record and returns its slot; ok is false when the record
// does not fit in the current page.
func (b *RecordPageBuilder) TryAdd(rec []byte) (slot int, ok bool) {
	if len(rec) > b.FreeBytes() {
		return 0, false
	}
	off := b.used
	binary.LittleEndian.PutUint16(b.buf[off:], uint16(len(rec)))
	copy(b.buf[off+2:], rec)
	slot = b.nrec
	binary.LittleEndian.PutUint16(b.buf[b.pageSize-slotEntrySize*(slot+1):], uint16(off))
	b.used = off + 2 + len(rec)
	b.nrec++
	binary.LittleEndian.PutUint16(b.buf[0:], uint16(b.nrec))
	return slot, true
}

// Bytes returns the assembled page; the slice aliases the builder.
func (b *RecordPageBuilder) Bytes() []byte { return b.buf }

// ReadRecordSlot returns the payload of the record at slot. The slice
// aliases page, so in-place mutation through Tenant.Update is
// possible for fixed-size records.
func ReadRecordSlot(page []byte, pageSize, slot int) ([]byte, error) {
	nrec := int(binary.LittleEndian.Uint16(page[0:]))
	if slot < 0 || slot >= nrec {
		return nil, fmt.Errorf("storage: record slot %d out of range [0,%d)", slot, nrec)
	}
	off := int(binary.LittleEndian.Uint16(page[pageSize-slotEntrySize*(slot+1):]))
	if off+2 > pageSize {
		return nil, fmt.Errorf("storage: corrupt record slot %d offset %d", slot, off)
	}
	n := int(binary.LittleEndian.Uint16(page[off:]))
	if off+2+n > pageSize {
		return nil, fmt.Errorf("storage: corrupt record slot %d length %d", slot, n)
	}
	return page[off+2 : off+2+n], nil
}

// RecordSlotCount returns the number of records in an encoded page.
func RecordSlotCount(page []byte) int {
	return int(binary.LittleEndian.Uint16(page[0:]))
}
