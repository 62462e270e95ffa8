package points

import (
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
	q    float64 // the quantum the offsets are stored over
}

// NewPagedEdgeSetBuffer packs src into file (which must be empty) and reads
// it back through bm, which must wrap file — typically a tenant of the
// process-wide buffer pool. One record per populated edge: a counted run
// of (point, offset) pairs sorted by (offset, id).
func NewPagedEdgeSetBuffer(src *EdgeSet, file storage.PagedFile, bm *storage.Tenant) (*PagedEdgeSet, error) {
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("points: NewPagedEdgeSetBuffer needs an empty file, got %d pages", file.NumPages())
	}
	w, err := storage.NewRecordWriter(file, 2+storage.PairSize)
	if err != nil {
		return nil, err
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
		bm:   bm,
		dir:  make(map[edgeKey]storage.RecRef, len(keys)),
		pts:  append([]EdgePoint(nil), src.pts...),
		live: src.live,
		q:    math.Ldexp(1, src.logQ),
	}
	var rec []byte
	for _, k := range keys {
		refs := src.byEdge[k]
		rec = storage.AppendCount(rec[:0], len(refs))
		for _, r := range refs {
			rec = storage.AppendPair(rec, int32(r.ID), r.Pos, s.q)
		}
		if s.dir[k], err = w.Add(rec); err != nil {
			return nil, fmt.Errorf("points: %d points on edge (%d,%d): %w", len(refs), k.u, k.v, err)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// PointsOn implements EdgeView.
func (s *PagedEdgeSet) PointsOn(u, v graph.NodeID, buf []EdgePointRef) ([]EdgePointRef, error) {
	buf = buf[:0]
	ref, ok := s.dir[canonKey(u, v)]
	if !ok {
		return buf, nil
	}
	err := s.bm.ReadRecord(ref, func(rec []byte) (err error) {
		buf, err = DecodeEdgeRecord(rec, buf, s.q)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("points: edge (%d,%d): %w", u, v, err)
	}
	return buf, nil
}

// DecodeEdgeRecord appends the points of one edge's record, its offsets
// stored over the quantum q, to buf.
func DecodeEdgeRecord(rec []byte, buf []EdgePointRef, q float64) ([]EdgePointRef, error) {
	pairs, err := storage.CountedPairs(rec)
	if err != nil {
		return nil, err
	}
	for ; len(pairs) > 0; pairs = pairs[storage.PairSize:] {
		id, pos := storage.Pair(pairs, q)
		buf = append(buf, EdgePointRef{ID: PointID(id), Pos: pos})
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
