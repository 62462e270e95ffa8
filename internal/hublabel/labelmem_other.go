//go:build !(linux || darwin)

package hublabel

// Where the syscall package lacks mmap or mprotect the label entries are
// heap bytes (see labelmem_mmap.go).

// MappedLabels returns the number of label mappings the process holds and
// their bytes: none here.
func MappedLabels() (mappings int, bytes int64) { return 0, 0 }

// newLabelMem returns size zeroed heap bytes; they are not mapped.
func newLabelMem(size int) (mem []byte, isMapped bool) { return make([]byte, size), false }

// seal has nothing to seal: the entries are on the heap.
func (*Labeling) seal(*labelSet, bool) {}
