package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphrnn/internal/graph"
)

// Adjacency lists are stored in slotted pages. Each page is
//
//	[0:2]   uint16 record count
//	[2:..]  records, growing upward
//	[..:N]  slot directory growing downward: slot i's record offset is the
//	        uint16 at N-2(i+1)
//
// A record is one *fragment* of a node's adjacency list:
//
//	node     int32    owner node id
//	count    uint16   number of edges in this fragment
//	nextPage int32    page of the next fragment, InvalidPage when last
//	nextSlot uint16   slot of the next fragment
//	edges    count × { to int32, weight float64 }
//
// Fragmentation lets arbitrarily high-degree nodes (hubs of scale-free
// BRITE-style topologies) span pages while ordinary nodes share pages with
// their graph neighbours, which is the locality-grouping idea of Section 3.1
// of the paper. Weights are stored as float64 so the disk-resident graph is
// bit-identical to the in-memory one.

const (
	pageHeaderSize = 2
	slotEntrySize  = 2
	fragHeaderSize = 4 + 2 + 4 + 2
	edgeEntrySize  = 4 + 8
)

// RecRef locates a record (fragment) on disk.
type RecRef struct {
	Page PageID
	Slot uint16
}

// InvalidRecRef marks the absence of a record reference.
var InvalidRecRef = RecRef{Page: InvalidPage}

// PageBuilder assembles slotted pages of a fixed size.
type PageBuilder struct {
	pageSize int
	buf      []byte
	used     int // bytes consumed by header + records
	nrec     int
}

// NewPageBuilder returns a builder for pages of pageSize bytes.
func NewPageBuilder(pageSize int) *PageBuilder {
	pb := &PageBuilder{pageSize: pageSize}
	pb.Reset()
	return pb
}

// Reset clears the builder for a fresh page.
func (pb *PageBuilder) Reset() {
	if pb.buf == nil {
		pb.buf = make([]byte, pb.pageSize)
	} else {
		for i := range pb.buf {
			pb.buf[i] = 0
		}
	}
	pb.used = pageHeaderSize
	pb.nrec = 0
}

// Empty reports whether no records have been added to the current page.
func (pb *PageBuilder) Empty() bool { return pb.nrec == 0 }

// FreeBytes returns the space available for one more record including its
// slot directory entry.
func (pb *PageBuilder) FreeBytes() int {
	return pb.pageSize - pb.used - slotEntrySize*(pb.nrec+1)
}

// FragmentCapacity returns how many edges a new fragment record could hold
// in the current page.
func (pb *PageBuilder) FragmentCapacity() int {
	free := pb.FreeBytes() - fragHeaderSize
	if free < 0 {
		return -1
	}
	return free / edgeEntrySize
}

// MaxEdgesPerFragment returns the edge capacity of a fragment in an empty
// page of pageSize bytes.
func MaxEdgesPerFragment(pageSize int) int {
	return (pageSize - pageHeaderSize - slotEntrySize - fragHeaderSize) / edgeEntrySize
}

// AddFragment appends a fragment record and returns its slot number. The
// caller must have checked FragmentCapacity.
func (pb *PageBuilder) AddFragment(node graph.NodeID, edges []graph.Edge, next RecRef) (int, error) {
	need := fragHeaderSize + edgeEntrySize*len(edges)
	if need > pb.FreeBytes() {
		return 0, fmt.Errorf("storage: fragment of %d bytes does not fit in %d free", need, pb.FreeBytes())
	}
	if len(edges) > math.MaxUint16 {
		return 0, fmt.Errorf("storage: fragment with %d edges exceeds uint16", len(edges))
	}
	off := pb.used
	b := pb.buf
	binary.LittleEndian.PutUint32(b[off:], uint32(node))
	binary.LittleEndian.PutUint16(b[off+4:], uint16(len(edges)))
	binary.LittleEndian.PutUint32(b[off+6:], uint32(next.Page))
	binary.LittleEndian.PutUint16(b[off+10:], next.Slot)
	p := off + fragHeaderSize
	for _, e := range edges {
		binary.LittleEndian.PutUint32(b[p:], uint32(e.To))
		binary.LittleEndian.PutUint64(b[p+4:], math.Float64bits(e.W))
		p += edgeEntrySize
	}
	slot := pb.nrec
	binary.LittleEndian.PutUint16(b[pb.pageSize-slotEntrySize*(slot+1):], uint16(off))
	pb.used = p
	pb.nrec++
	binary.LittleEndian.PutUint16(b[0:], uint16(pb.nrec))
	return slot, nil
}

// Bytes returns the assembled page. The slice aliases the builder's buffer
// and is invalidated by Reset.
func (pb *PageBuilder) Bytes() []byte { return pb.buf }

// PageRecordCount returns the number of records stored in an encoded page.
func PageRecordCount(page []byte) int {
	return int(binary.LittleEndian.Uint16(page[0:]))
}

// ReadFragment decodes the fragment at slot in page, appending its edges to
// buf. It returns the owner node, the location of the next fragment
// (InvalidRecRef when the chain ends), and the extended edge slice.
func ReadFragment(page []byte, pageSize int, slot int, buf []graph.Edge) (node graph.NodeID, next RecRef, edges []graph.Edge, err error) {
	nrec := PageRecordCount(page)
	if slot < 0 || slot >= nrec {
		return 0, InvalidRecRef, buf, fmt.Errorf("storage: slot %d out of range [0,%d)", slot, nrec)
	}
	off := int(binary.LittleEndian.Uint16(page[pageSize-slotEntrySize*(slot+1):]))
	if off+fragHeaderSize > pageSize {
		return 0, InvalidRecRef, buf, fmt.Errorf("storage: corrupt slot %d offset %d", slot, off)
	}
	node = graph.NodeID(binary.LittleEndian.Uint32(page[off:]))
	count := int(binary.LittleEndian.Uint16(page[off+4:]))
	next = RecRef{
		Page: PageID(int32(binary.LittleEndian.Uint32(page[off+6:]))),
		Slot: binary.LittleEndian.Uint16(page[off+10:]),
	}
	p := off + fragHeaderSize
	if p+count*edgeEntrySize > pageSize {
		return 0, InvalidRecRef, buf, fmt.Errorf("storage: corrupt fragment at slot %d: %d edges overflow page", slot, count)
	}
	for i := 0; i < count; i++ {
		to := graph.NodeID(binary.LittleEndian.Uint32(page[p:]))
		w := math.Float64frombits(binary.LittleEndian.Uint64(page[p+4:]))
		buf = append(buf, graph.Edge{To: to, W: w})
		p += edgeEntrySize
	}
	return node, next, buf, nil
}
