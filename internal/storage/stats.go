// Package storage provides the disk substrate of the library: fixed-size
// pages, paged files (in-memory and OS-file backed), an LRU buffer manager
// with fault accounting, and the slotted-page codec that stores graph
// adjacency lists the way Section 3.1 of Yiu et al. (TKDE'06) describes —
// lists of nearby nodes grouped into the same page, plus an index from node
// id to its list.
//
// The experimental cost model of the paper charges 10 ms per random I/O and
// measures CPU separately; Stats exposes exactly the counters that model
// needs.
package storage

// Stats is a point-in-time snapshot of the physical I/O activity of a
// buffer pool or one of its tenants. The live counters move under the pool
// mutex, which a page fault releases for its physical read, so snapshots
// may be taken while queries fault pages in.
type Stats struct {
	// Reads counts physical page reads (buffer faults).
	Reads int64
	// Hits counts logical reads served from the buffer.
	Hits int64
	// Writes counts physical page writes (dirty evictions and flushes).
	Writes int64
	// Evictions counts frames pushed out by LRU replacement at the
	// tenant's quota.
	Evictions int64
}

// Add returns the element-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:     s.Reads + o.Reads,
		Hits:      s.Hits + o.Hits,
		Writes:    s.Writes + o.Writes,
		Evictions: s.Evictions + o.Evictions,
	}
}

// Sub returns the element-wise difference s-o, used to take per-query deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:     s.Reads - o.Reads,
		Hits:      s.Hits - o.Hits,
		Writes:    s.Writes - o.Writes,
		Evictions: s.Evictions - o.Evictions,
	}
}

// HitRate returns the fraction of logical reads served from the buffer,
// or 0 when nothing was read.
func (s Stats) HitRate() float64 {
	if s.Reads+s.Hits == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads+s.Hits)
}

// IO returns the total number of physical page transfers.
func (s Stats) IO() int64 { return s.Reads + s.Writes }
