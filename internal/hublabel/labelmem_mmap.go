//go:build linux || darwin

package hublabel

import (
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
)

// Label entries live outside the Go heap. A labeling is immutable and
// pointer-free from the moment its build ends, yet on the heap it would
// count towards the live heap the collector paces against: at the default
// GOGC the process would keep as much again in headroom for data that can
// never become garbage. In one anonymous mapping per side the collector
// neither scans nor paces against the labels, and the mapping is sealed
// read-only once written. Linux and darwin are the platforms whose syscall
// package has both mmap and mprotect; elsewhere labelmem_other.go keeps the
// entries on the heap.
//
// This is the package's only file that touches syscall.

// mapped counts the label mappings this process holds, and their bytes.
var mapped struct{ count, bytes atomic.Int64 }

// MappedLabels returns the number of label mappings the process holds and
// their total size in bytes: every side of every labeling built or loaded
// and not yet collected.
func MappedLabels() (mappings int, bytes int64) {
	return int(mapped.count.Load()), mapped.bytes.Load()
}

// newLabelMem returns size zeroed bytes for a side's packed entries in one
// anonymous private mapping, and mapped true. A mapping the kernel refuses
// (ENOMEM, vm.max_map_count) falls back to a heap slice, mapped false.
func newLabelMem(size int) (mem []byte, isMapped bool) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, size), false
	}
	mapped.count.Add(1)
	mapped.bytes.Add(int64(len(mem)))
	return mem, true
}

// seal makes the mapping behind s's entries read-only and has the runtime
// unmap it once l is unreachable. The cleanup gets the mapping, never l, so
// it does not keep l alive. If the protection cannot be changed, the entries
// move to the heap with the same bytes and the mapping goes at once.
func (l *Labeling) seal(s *labelSet, isMapped bool) {
	if !isMapped {
		return
	}
	mem := s.entries
	if syscall.Mprotect(mem, syscall.PROT_READ) != nil {
		s.entries = slices.Clone(mem)
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
