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
// EdgePoints.Paged) attach to it automatically, growing its capacity by
// their BufferPages so the default composition behaves exactly like the
// former independent per-substrate buffers. The shard engines of an
// in-process DB.Shard join their parent's pool the same way.
type BufferPool struct {
	p *storage.BufferPool
}

// attach registers file as a tenant and grows the pool by its quota.
// quota may be storage.NoCache to keep the tenant's pages out of the pool,
// or 0 to bound the tenant by the capacity the other tenants brought.
func (bp *BufferPool) attach(name string, file storage.PagedFile, quota int) *storage.Tenant {
	return bp.p.AttachGrowing(name, file, quota)
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
	// Quota is the tenant's frame quota (0 = bounded by the pool only).
	Quota int
}

// PoolStats is a point-in-time snapshot of a shared pool.
type PoolStats struct {
	// IOStats aggregates the page traffic of every tenant.
	IOStats
	// Capacity is the pool's total frame budget.
	Capacity int
	// Tenants lists the attached substrates in attach order.
	Tenants []TenantIOStats
}

// Stats returns the pool-wide traffic and the per-tenant breakdown.
func (bp *BufferPool) Stats() PoolStats {
	out := PoolStats{
		IOStats:  ioStatsOf(bp.p.Stats()),
		Capacity: bp.p.Capacity(),
	}
	for _, t := range bp.p.TenantStats() {
		out.Tenants = append(out.Tenants, TenantIOStats{
			Name:    t.Name,
			IOStats: ioStatsOf(t.Stats),
			Frames:  t.Frames,
			Quota:   t.Quota,
		})
	}
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
