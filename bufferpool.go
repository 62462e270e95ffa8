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
// former independent per-substrate buffers. To share one pool across DBs
// — or to cap the process's total page cache and let quotas partition it —
// create a fixed-capacity pool with NewBufferPool and pass it through
// Options.Pool.
type BufferPool struct {
	p *storage.BufferPool
	// elastic pools (DB-owned) grow by each tenant's quota on attach;
	// fixed pools (NewBufferPool) keep the capacity the caller chose.
	elastic bool
}

// NewBufferPool creates a fixed-capacity pool of capPages frames, to be
// shared through Options.Pool. Tenants attach with their BufferPages as
// quota (0 = share the capacity freely). A capacity of zero caches
// nothing: every page access is a counted physical transfer.
func NewBufferPool(capPages int) *BufferPool {
	return &BufferPool{p: storage.NewBufferPool(capPages)}
}

func newElasticPool() *BufferPool {
	return &BufferPool{p: storage.NewBufferPool(0), elastic: true}
}

// attach registers file under the pool's sizing policy: elastic pools grow
// by the quota, fixed pools partition their capacity. quota may be
// storage.NoCache to keep the tenant's pages out of the pool.
func (bp *BufferPool) attach(name string, file storage.PagedFile, quota int) *storage.Tenant {
	if bp.elastic {
		return bp.p.AttachGrowing(name, file, quota)
	}
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
