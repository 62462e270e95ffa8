//go:build linux || darwin

package hublabel

import (
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"unsafe"

	"graphrnn/internal/graph"
)

// Label arrays live outside the Go heap. A labeling is immutable and
// pointer-free from the moment its build ends, yet on the heap it would
// count towards the live heap the collector paces against: at the default
// GOGC the process would keep as much again in headroom for data that can
// never become garbage. In one anonymous mapping per side the collector
// neither scans nor paces against the labels, and the mapping is sealed
// read-only once written. Linux and darwin are the platforms whose syscall
// package has both mmap and mprotect; elsewhere labelmem_other.go keeps the
// arrays on the heap.
//
// This is the package's only file that touches syscall or unsafe.

// mapped counts the label mappings this process holds, and their bytes.
var mapped struct{ count, bytes atomic.Int64 }

// MappedLabels returns the number of label mappings the process holds and
// their total size in bytes: every side of every labeling built or loaded
// and not yet collected.
func MappedLabels() (mappings int, bytes int64) {
	return int(mapped.count.Load()), mapped.bytes.Load()
}

// newLabelArrays returns zeroed hub and distance arrays of total entries in
// one anonymous private mapping: the distances at its page-aligned start,
// the hub ids after them, mem the whole. An empty side maps nothing, and a
// mapping the kernel refuses (ENOMEM, vm.max_map_count) falls back to heap
// slices; mem is nil for both.
func newLabelArrays(total int) (hubs []graph.NodeID, dists []float64, mem []byte) {
	if total > 0 {
		var err error
		mem, err = syscall.Mmap(-1, 0, total*labelEntryBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			mapped.count.Add(1)
			mapped.bytes.Add(int64(len(mem)))
			base := unsafe.Pointer(unsafe.SliceData(mem))
			dists = unsafe.Slice((*float64)(base), total)
			hubs = unsafe.Slice((*graph.NodeID)(unsafe.Add(base, total*8)), total)
			return hubs, dists, mem
		}
	}
	return make([]graph.NodeID, total), make([]float64, total), nil
}

// seal makes the mapping mem behind s read-only and has the runtime unmap it
// once l is unreachable. The cleanup gets the mapping, never l, so it does
// not keep l alive. If the protection cannot be changed, s moves to the heap
// with the same bits and the mapping goes at once.
func (l *Labeling) seal(s *labelSet, mem []byte) {
	if mem == nil {
		return
	}
	if syscall.Mprotect(mem, syscall.PROT_READ) != nil {
		s.hubs, s.dists = slices.Clone(s.hubs), slices.Clone(s.dists)
		unmapLabels(mem)
		return
	}
	runtime.AddCleanup(l, unmapLabels, mem)
}

// unmapLabels releases a label mapping.
func unmapLabels(mem []byte) {
	if syscall.Munmap(mem) == nil {
		mapped.count.Add(-1)
		mapped.bytes.Add(-int64(len(mem)))
	}
}
