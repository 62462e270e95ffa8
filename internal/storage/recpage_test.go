package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRecordPageQuickRoundTrip packs random records into pages and reads
// every one of them back bit-exactly.
func TestRecordPageQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pageSize := 128 + rng.Intn(4096)
		pb := NewRecordPageBuilder(pageSize)
		type placed struct {
			page int
			slot int
			data []byte
		}
		var pages [][]byte
		var recs []placed
		flush := func() {
			page := make([]byte, pageSize)
			copy(page, pb.Bytes())
			pages = append(pages, page)
			pb.Reset()
		}
		for i := 0; i < 60; i++ {
			n := rng.Intn(MaxRecordPayload(pageSize) + 1)
			rec := make([]byte, n)
			rng.Read(rec)
			slot, ok := pb.TryAdd(rec)
			if !ok {
				if pb.Empty() {
					return false // a fresh page must accept MaxRecordPayload
				}
				flush()
				if slot, ok = pb.TryAdd(rec); !ok {
					return false
				}
			}
			recs = append(recs, placed{page: len(pages), slot: slot, data: rec})
		}
		if !pb.Empty() {
			flush()
		}
		for _, r := range recs {
			got, err := ReadRecordSlot(pages[r.page], r.slot)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, r.data) {
				return false
			}
		}
		// Slot counts are consistent.
		total := 0
		for _, p := range pages {
			total += RecordSlotCount(p)
		}
		return total == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordPageRejectsOversized(t *testing.T) {
	pb := NewRecordPageBuilder(256)
	if _, ok := pb.TryAdd(make([]byte, MaxRecordPayload(256)+1)); ok {
		t.Fatal("oversized record accepted")
	}
	if _, ok := pb.TryAdd(make([]byte, MaxRecordPayload(256))); !ok {
		t.Fatal("max-size record rejected")
	}
}

func TestReadRecordSlotBounds(t *testing.T) {
	pb := NewRecordPageBuilder(256)
	if _, ok := pb.TryAdd([]byte{1, 2, 3}); !ok {
		t.Fatal("add failed")
	}
	page := pb.Bytes()
	if _, err := ReadRecordSlot(page, 1); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := ReadRecordSlot(page, -1); err == nil {
		t.Fatal("negative slot accepted")
	}
}
