package points

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// PagedEdgeSet is an immutable, disk-resident snapshot of an EdgeSet,
// implementing the storage scheme of Fig 14b: data points live in a separate
// paged file and each populated edge points at its record. PointsOn incurs
// (accounted) I/O through an LRU buffer; edges without points are resolved
// by the in-memory directory at no I/O cost, matching the paper's scheme
// where the pointer travels with the adjacency record that was already read.
//
// The point directory (id -> location) is memory-resident, playing the role
// of the node-id index of Section 3.1 for points.
type PagedEdgeSet struct {
	bm   *storage.Tenant
	dir  map[edgeKey]storage.RecRef
	pts  []EdgePoint
	live int
}

// Record layout: count uint16, then count x { id int32, pos float64 },
// sorted by (pos, id).
const edgePointEntrySize = 4 + 8

// NewPagedEdgeSetBuffer packs src into file (which must be empty) and reads
// it back through bm, which must wrap file — typically a tenant of the
// process-wide buffer pool. A nil bm falls back to a private buffer of
// bufferPages pages.
func NewPagedEdgeSetBuffer(src *EdgeSet, file storage.PagedFile, bm *storage.Tenant, bufferPages int) (*PagedEdgeSet, error) {
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("points: NewPagedEdgeSetBuffer needs an empty file, got %d pages", file.NumPages())
	}
	keys := make([]edgeKey, 0, len(src.byEdge))
	for k := range src.byEdge {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})

	s := &PagedEdgeSet{
		dir:  make(map[edgeKey]storage.RecRef, len(keys)),
		pts:  append([]EdgePoint(nil), src.pts...),
		live: src.live,
	}
	pb := storage.NewRecordPageBuilder(file.PageSize())
	nextPage := storage.PageID(0)
	var rec []byte
	flush := func() error {
		if pb.Empty() {
			return nil
		}
		id, err := file.Append(pb.Bytes())
		if err != nil {
			return err
		}
		if id != nextPage {
			return fmt.Errorf("points: expected page %d, appended %d", nextPage, id)
		}
		nextPage++
		pb.Reset()
		return nil
	}
	for _, k := range keys {
		refs := src.byEdge[k]
		need := 2 + edgePointEntrySize*len(refs)
		if need > storage.MaxRecordPayload(file.PageSize()) {
			return nil, fmt.Errorf("points: %d points on edge (%d,%d) exceed one page", len(refs), k.u, k.v)
		}
		rec = rec[:0]
		rec = binary.LittleEndian.AppendUint16(rec, uint16(len(refs)))
		for _, r := range refs {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(r.ID))
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(r.Pos))
		}
		slot, ok := pb.TryAdd(rec)
		if !ok {
			if err := flush(); err != nil {
				return nil, err
			}
			if slot, ok = pb.TryAdd(rec); !ok {
				return nil, fmt.Errorf("points: record of %d bytes does not fit an empty page", len(rec))
			}
		}
		s.dir[k] = storage.RecRef{Page: nextPage, Slot: uint16(slot)}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if bm == nil {
		bm = storage.NewBufferPool(bufferPages).Attach("", file, 0)
	}
	s.bm = bm
	return s, nil
}

// PointsOn implements EdgeView.
func (s *PagedEdgeSet) PointsOn(u, v graph.NodeID, buf []EdgePointRef) ([]EdgePointRef, error) {
	buf = buf[:0]
	ref, ok := s.dir[canonKey(u, v)]
	if !ok {
		return buf, nil
	}
	page, err := s.bm.Pin(ref.Page)
	if err != nil {
		return nil, fmt.Errorf("points: edge (%d,%d): %w", u, v, err)
	}
	defer page.Unpin()
	rec, err := storage.ReadRecordSlot(page.Bytes(), s.bm.File().PageSize(), int(ref.Slot))
	if err != nil {
		return nil, fmt.Errorf("points: edge (%d,%d): %w", u, v, err)
	}
	count := int(binary.LittleEndian.Uint16(rec[0:]))
	if len(rec) < 2+count*edgePointEntrySize {
		return nil, fmt.Errorf("points: corrupt record for edge (%d,%d)", u, v)
	}
	p := 2
	for i := 0; i < count; i++ {
		id := PointID(binary.LittleEndian.Uint32(rec[p:]))
		pos := math.Float64frombits(binary.LittleEndian.Uint64(rec[p+4:]))
		buf = append(buf, EdgePointRef{ID: id, Pos: pos})
		p += edgePointEntrySize
	}
	return buf, nil
}

// Loc implements EdgeView.
func (s *PagedEdgeSet) Loc(p PointID) (EdgePoint, bool) {
	if p < 0 || int(p) >= len(s.pts) || s.pts[p].U < 0 {
		return EdgePoint{}, false
	}
	return s.pts[p], true
}

// Len implements EdgeView.
func (s *PagedEdgeSet) Len() int { return s.live }

// Points implements EdgeView.
func (s *PagedEdgeSet) Points() []PointID {
	out := make([]PointID, 0, s.live)
	for p := range s.pts {
		if s.pts[p].U >= 0 {
			out = append(out, PointID(p))
		}
	}
	return out
}

// Stats returns the I/O counters of the point file buffer.
func (s *PagedEdgeSet) Stats() storage.Stats { return s.bm.Stats() }

// ResetStats zeroes the I/O counters.
func (s *PagedEdgeSet) ResetStats() { s.bm.ResetStats() }

// Buffer exposes the underlying buffer manager.
func (s *PagedEdgeSet) Buffer() *storage.Tenant { return s.bm }

// Close detaches the set's buffer tenant from its pool, releasing its
// frames and any capacity it contributed. The set must not be used
// afterwards; Close is idempotent.
func (s *PagedEdgeSet) Close() error {
	if s.bm == nil {
		return nil
	}
	bm := s.bm
	s.bm = nil
	return bm.Detach()
}
