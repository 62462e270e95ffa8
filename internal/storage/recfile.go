package storage

import "fmt"

// RecordWriter appends slotted record pages to a paged file. Every record
// of the repository's three record files is written through one.
type RecordWriter struct {
	file PagedFile
	pb   *RecordPageBuilder
	next PageID // id the page under construction will get
}

// NewRecordWriter returns a writer appending to file, refusing — before
// any page is written — a page size the 16-bit slot arithmetic cannot
// address or one too small for a single record of minRecord bytes.
func NewRecordWriter(file PagedFile, minRecord int) (*RecordWriter, error) {
	pageSize := file.PageSize()
	if pageSize > MaxPageSize {
		return nil, fmt.Errorf("storage: page size %d exceeds the limit of %d bytes (slot offsets and record lengths are 16-bit)", pageSize, MaxPageSize)
	}
	if MaxRecordPayload(pageSize) < minRecord {
		return nil, fmt.Errorf("storage: page size %d cannot hold one %d-byte record", pageSize, minRecord)
	}
	return &RecordWriter{file: file, pb: NewRecordPageBuilder(pageSize), next: PageID(file.NumPages())}, nil
}

// Page returns the id of the page under construction.
func (w *RecordWriter) Page() PageID { return w.next }

// Empty reports whether the page under construction holds no records.
func (w *RecordWriter) Empty() bool { return w.pb.Empty() }

// Free returns the payload bytes the page under construction has left for
// one more record.
func (w *RecordWriter) Free() int { return w.pb.FreeBytes() }

// Add appends rec, opening a fresh page when the current one has no room,
// and returns where it landed.
func (w *RecordWriter) Add(rec []byte) (RecRef, error) {
	slot, ok := w.pb.TryAdd(rec)
	if !ok {
		if err := w.Flush(); err != nil {
			return InvalidRecRef, err
		}
		if slot, ok = w.pb.TryAdd(rec); !ok {
			return InvalidRecRef, fmt.Errorf("storage: record of %d bytes does not fit an empty %d-byte page", len(rec), w.file.PageSize())
		}
	}
	return RecRef{Page: w.next, Slot: uint16(slot)}, nil
}

// Flush appends the page under construction, if it holds anything: the
// forced page break of a record chain, and the last call of every build.
func (w *RecordWriter) Flush() error {
	if w.pb.Empty() {
		return nil
	}
	if err := w.appendPage(w.pb.Bytes()); err != nil {
		return err
	}
	w.pb.Reset()
	return nil
}

func (w *RecordWriter) appendPage(page []byte) error {
	id, err := w.file.Append(page)
	if err != nil {
		return err
	}
	if id != w.next {
		return fmt.Errorf("storage: expected page %d, file appended %d", w.next, id)
	}
	w.next++
	return nil
}

// ReadRecord runs decode on the payload of the record in ref's slot, which
// aliases the page and is dead once decode returns. It is ReadPage's one
// critical section with the slot lookup in it, so decode runs under the
// pool mutex and must do no more than copy one record out. decode's error
// is returned as is.
func (t *Tenant) ReadRecord(ref RecRef, decode func(rec []byte) error) error {
	fr, borrowed, err := t.lockPage(ref.Page)
	if err != nil {
		return err
	}
	defer t.unlockPage(fr, borrowed)
	rec, err := ReadRecordSlot(fr.data, int(ref.Slot))
	if err != nil {
		return err
	}
	return decode(rec)
}
