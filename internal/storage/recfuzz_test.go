package storage_test

import (
	"encoding/binary"
	"testing"

	"graphrnn/internal/core"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// FuzzRecordPage feeds arbitrary page bytes and slot numbers to the page
// reader and, behind it, to the decoder of each of the three payloads: every
// one returns an error or data that fits the record it was given — never a
// panic, never more items than the bytes can hold. (Label pages are raw
// pages of the packed labeling, written and read by internal/hublabel's
// Store alone.)
func FuzzRecordPage(f *testing.F) {
	const pageSize = 256
	pairs := func(b []byte, n int) []byte {
		for i := 0; i < n; i++ {
			b = storage.AppendPair(b, int32(i+1), graph.Dist(i))
		}
		return b
	}
	page := func(recs ...[]byte) []byte {
		pb := storage.NewRecordPageBuilder(pageSize)
		for _, rec := range recs {
			if _, ok := pb.TryAdd(rec); !ok {
				f.Fatalf("seed record of %d bytes does not fit", len(rec))
			}
		}
		return append([]byte(nil), pb.Bytes()...)
	}
	fragment := pairs([]byte{7, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0}, 2) // owner 7, last of its chain
	list := pairs(storage.AppendCount(nil, 2), 3)                          // two live entries, one of padding
	edgeRec := pairs(storage.AppendCount(nil, 2), 2)                       // two (point, offset) pairs
	short := pairs(storage.AppendCount(nil, 1), 1)                         // a one-entry list
	healthy := page(fragment, list, edgeRec, short)
	for slot := 0; slot < 4; slot++ {
		f.Add(healthy, slot)
	}
	// The corrupt shapes of TestFragmentCodecCorruptSlot and the counted
	// payloads: a slot past the directory, a record too short for any
	// header, a count the record cannot hold, a fragment cut inside a pair,
	// and a record count that runs the directory into the records.
	f.Add(healthy, 5)
	f.Add(healthy, 9999)
	f.Add(healthy, -1)
	f.Add(page([]byte{0}), 0)
	overcount := page(edgeRec)
	rec, err := storage.ReadRecordSlot(overcount, 0)
	if err != nil {
		f.Fatal(err)
	}
	rec[0], rec[1] = 0xff, 0xff
	f.Add(overcount, 0)
	f.Add(page(fragment[:len(fragment)-1]), 0)
	crowded := page(list)
	binary.LittleEndian.PutUint16(crowded, 0xffff)
	f.Add(crowded, 200)
	f.Add([]byte{9}, 0)

	f.Fuzz(func(t *testing.T, page []byte, slot int) {
		rec, err := storage.ReadRecordSlot(page, slot)
		if err != nil {
			return
		}
		if len(rec) > len(page) {
			t.Fatalf("a %d-byte record out of a %d-byte page", len(rec), len(page))
		}
		fits := func(payload string, items, prefix, each int, err error) {
			if err == nil && prefix+items*each > len(rec) {
				t.Fatalf("%s: %d items decoded out of a %d-byte record", payload, items, len(rec))
			}
		}
		_, _, edges, err := storage.ReadFragment(rec, nil)
		fits("adjacency fragment", len(edges), 10, storage.PairSize, err)
		entries, err := core.DecodeMatList(rec, nil)
		fits("K-NN list", len(entries), 2, storage.PairSize, err)
		refs, err := points.DecodeEdgeRecord(rec, nil)
		fits("edge-point record", len(refs), 2, storage.PairSize, err)
	})
}
