package graphrnn

import (
	"graphrnn/internal/storage"
)

// BufferPool is one shared LRU page cache for every paged substrate of the
// system: graph adjacency pages, materialized K-NN lists, hub-label pages
// and paged edge-point files all draw frames from the same pool, each
// attached as a named tenant with a frame quota. The pool is the single
// source of I/O accounting — per-tenant counters and the pool aggregate
// are maintained at the same increment sites.
//
// Every DB owns a pool: substrates built through the DB
// (Open's disk-backed graph, MaterializeNodePoints, BuildHubLabelIndex,
// EdgePoints.Paged) attach to it automatically with their BufferPages as
// quota. A tenant evicts only its own frames, so each substrate behaves
// exactly like an independent buffer of that size, and the pool's
// capacity is the sum of the quotas. The shard engines of an in-process
// DB.Shard join their parent's pool the same way.
type BufferPool struct {
	p *storage.BufferPool
}

// attach registers file as a tenant holding at most quota frames and grows
// the pool by that quota. quota may be storage.NoCache to keep the
// tenant's pages out of the pool.
func (bp *BufferPool) attach(name string, file storage.PagedFile, quota int) *storage.Tenant {
	return bp.p.Attach(name, file, quota)
}

// TenantIOStats describes one substrate's view of a shared pool.
type TenantIOStats struct {
	// Name identifies the substrate ("graph", "mat", "hublabel",
	// "edgepoints").
	Name string
	// IOStats holds the tenant's own page traffic.
	IOStats
	// Frames is the number of pool frames the tenant currently holds.
	Frames int
	// Quota is the tenant's frame quota (≤ 0 = uncached).
	Quota int
}

// PoolStats is a point-in-time snapshot of a shared pool.
type PoolStats struct {
	// IOStats aggregates the page traffic of every tenant: the sum of the
	// Tenants rows.
	IOStats
	// Capacity is the pool's total frame budget.
	Capacity int
	// Tenants lists the attached substrates in attach order.
	Tenants []TenantIOStats
}

// Stats returns the pool-wide traffic and the per-tenant breakdown, read
// in one critical section: the aggregate is the sum of the rows.
func (bp *BufferPool) Stats() PoolStats {
	capacity, tenants := bp.p.Snapshot()
	out := PoolStats{Capacity: capacity}
	var sum storage.Stats
	for _, t := range tenants {
		sum = sum.Add(t.Stats)
		out.Tenants = append(out.Tenants, TenantIOStats{
			Name:    t.Name,
			IOStats: ioStatsOf(t.Stats),
			Frames:  t.Frames,
			Quota:   t.Quota,
		})
	}
	out.IOStats = ioStatsOf(sum)
	return out
}

// ResetStats zeroes the pool-wide and every tenant's counters.
func (bp *BufferPool) ResetStats() { bp.p.ResetStats() }

// BufferPool returns the pool the DB's substrates attach to. The pool
// always exists; on a fully memory-served DB it simply has no tenants.
func (db *DB) BufferPool() *BufferPool { return db.pool }

// PoolStats is shorthand for db.BufferPool().Stats().
func (db *DB) PoolStats() PoolStats { return db.pool.Stats() }

func ioStatsOf(s storage.Stats) IOStats {
	return IOStats{Reads: s.Reads, Hits: s.Hits, Writes: s.Writes, Evictions: s.Evictions}
}
