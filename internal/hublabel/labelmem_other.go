//go:build !(linux || darwin)

package hublabel

import "graphrnn/internal/graph"

// Where the syscall package lacks mmap or mprotect the label arrays are
// heap slices (see labelmem_mmap.go).

// MappedLabels returns the number of label mappings the process holds and
// their bytes: none here.
func MappedLabels() (mappings int, bytes int64) { return 0, 0 }

// newLabelArrays returns zeroed heap arrays of total entries; mem is nil.
func newLabelArrays(total int) (hubs []graph.NodeID, dists []float64, mem []byte) {
	return make([]graph.NodeID, total), make([]float64, total), nil
}

// seal has nothing to seal: the arrays are on the heap.
func (*Labeling) seal(*labelSet, []byte) {}
