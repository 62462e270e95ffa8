package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphrnn/internal/graph"
)

// The payload codecs of recpage.go's layout: the (id, value) pair every
// record body is made of, the count-prefixed run of pairs two of the three
// payloads are, and the adjacency fragment this package owns.

// PairSize is the encoded size of one (id int32, distance) pair.
const PairSize = 4 + 8

// AppendPair appends the encoding of (id, d) to b. The distance d, a count
// of the graph's quantum q, is stored as the float64 d·q — exact below 2^53
// counts — so the persisted bytes are the distance's value, not the engine's
// representation of it.
func AppendPair(b []byte, id int32, d graph.Dist, q float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(id))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(d)*q))
}

// Pair decodes the pair at the front of b, which must hold PairSize bytes,
// with the distance counted in the quantum q the pair was written with.
func Pair(b []byte, q float64) (id int32, d graph.Dist) {
	_ = b[PairSize-1]
	return int32(binary.LittleEndian.Uint32(b)), graph.Dist(math.Float64frombits(binary.LittleEndian.Uint64(b[4:])) / q)
}

// AppendCount opens a counted run of n pairs: [count u16] then n × pair.
func AppendCount(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint16(b, uint16(n))
}

// CountedPairs returns the pair bytes of the counted run at the front of
// rec, a multiple of PairSize long. Length before content: a corrupt page
// can hold a record too short to carry its count, or a count the record
// cannot hold.
func CountedPairs(rec []byte) ([]byte, error) {
	if len(rec) < 2 {
		return nil, fmt.Errorf("storage: %d-byte record cannot carry a pair count", len(rec))
	}
	n := int(binary.LittleEndian.Uint16(rec))
	if len(rec) < 2+n*PairSize {
		return nil, fmt.Errorf("storage: record of %d bytes claims %d pairs", len(rec), n)
	}
	return rec[2 : 2+n*PairSize], nil
}

// fragHeaderSize is the fixed prefix of an adjacency fragment: the owner
// node, then the page and slot of the next fragment of its list
// (InvalidPage when this one is the last).
const fragHeaderSize = 4 + 4 + 2

// fragmentRoom returns how many edges a fragment of at most free payload
// bytes holds, -1 when not even its header fits.
func fragmentRoom(free int) int {
	if free < fragHeaderSize {
		return -1
	}
	return (free - fragHeaderSize) / PairSize
}

// appendFragment appends the fragment payload of owner to b, its weights
// counts of the quantum q.
func appendFragment(b []byte, owner graph.NodeID, next RecRef, edges []graph.Edge, q float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(owner))
	b = binary.LittleEndian.AppendUint32(b, uint32(next.Page))
	b = binary.LittleEndian.AppendUint16(b, next.Slot)
	for _, e := range edges {
		b = AppendPair(b, int32(e.To), e.W, q)
	}
	return b
}

// ReadFragment decodes a fragment payload written over the quantum q,
// appending its edges to buf. It returns the owner node, the location of
// the next fragment (InvalidRecRef when the chain ends), and the extended
// edge slice.
func ReadFragment(rec []byte, buf []graph.Edge, q float64) (owner graph.NodeID, next RecRef, edges []graph.Edge, err error) {
	if len(rec) < fragHeaderSize || (len(rec)-fragHeaderSize)%PairSize != 0 {
		return 0, InvalidRecRef, buf, fmt.Errorf("storage: corrupt adjacency fragment of %d bytes", len(rec))
	}
	owner = graph.NodeID(binary.LittleEndian.Uint32(rec))
	next = RecRef{
		Page: PageID(binary.LittleEndian.Uint32(rec[4:])),
		Slot: binary.LittleEndian.Uint16(rec[8:]),
	}
	for b := rec[fragHeaderSize:]; len(b) > 0; b = b[PairSize:] {
		to, w := Pair(b, q)
		buf = append(buf, graph.Edge{To: graph.NodeID(to), W: w})
	}
	return owner, next, buf, nil
}
