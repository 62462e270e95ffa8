package graphrnn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"graphrnn/internal/core"
	"graphrnn/internal/exec"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// Materialization holds the per-node K-NN lists of Section 4.1 in a paged
// file read through the DB's shared buffer pool (tenant "mat"): the
// substrate of the eager-M algorithm. Lists support k-values up to MaxK
// and are maintained incrementally as points appear and disappear
// (Figs 8-11).
//
// A materialization is registered with the point set it was built or opened
// over: mutate the set through its Insert / Remove (or Place / Delete) and
// the lists are repaired with it, atomically. The repair runs inside a
// journaled operation that records the before-image of every list it
// touches, and an operation abandoned for any reason — cancellation,
// deadline, budget exhaustion, an I/O error — is rolled back, leaving the
// lists and the tracked point set bit-identical to the pre-operation state.
// See RepairState / Recover for the rare case where the rollback itself
// cannot complete, and SaveTo / OpenMaterialization for persistence with
// crash recovery.
type Materialization struct {
	db   *DB
	m    *core.Materialized
	node *NodePoints
	edge *EdgePoints

	// file and jfile are the backing page files of a materialization
	// reopened from disk (nil for the in-memory default).
	file  storage.PagedFile
	jfile storage.PagedFile

	// pending is the point-set half of an uncommitted maintenance
	// operation, so Recover can undo it when the inline rollback failed.
	pending *setOp
	// testCrash makes an abandoned operation skip its rollback, leaving
	// the journal uncommitted — the simulated-crash seam of the recovery
	// tests. Never set outside tests.
	testCrash bool
}

// Durability selects how hard a file-backed materialization pushes its
// maintenance writes toward stable storage. It only matters for
// materializations reopened with OpenMaterialization; the in-memory
// default has no disk to sync.
type Durability int

const (
	// DurabilityWriteOrder (the default) relies on write ordering alone:
	// the journal record reaches its file before the list page it covers,
	// and the header flip is a single page write. A process crash is always
	// recoverable; an OS crash or power loss may lose or reorder writes
	// still in the page cache.
	DurabilityWriteOrder Durability = iota
	// DurabilityFsync additionally syncs the journal file on every record
	// append and the materialization file on every commit flip, so a
	// committed operation survives power loss. Maintenance pays one fsync
	// per journaled record plus one per operation.
	DurabilityFsync
)

// MatOptions configures a materialization.
type MatOptions struct {
	// BufferPages is the list file's frame quota within the DB's shared
	// buffer pool (default 64). On a DB-owned pool the capacity grows by
	// this amount, matching the former dedicated list buffer.
	BufferPages int
	// Durability of the maintenance of a materialization reopened with
	// OpenMaterialization; default DurabilityWriteOrder. A build in this
	// process keeps its lists in a memory-backed file and ignores it.
	Durability Durability
}

func (o *MatOptions) bufferPages() int {
	if o != nil && o.BufferPages > 0 {
		return o.BufferPages
	}
	return 64
}

// MaterializeNodePoints builds the K-NN lists of every node over a
// node-resident point set with one all-NN expansion. Queries through the
// returned materialization support k <= maxK. The materialization is
// registered with ps: mutations of the set keep the lists consistent, and
// auto-planned queries over ps use eager-M (the set's most recently built
// materialization) when no hub-label index over ps outranks it.
func (db *DB) MaterializeNodePoints(ps *NodePoints, maxK int, opt *MatOptions) (*Materialization, error) {
	return db.materialize(&Materialization{db: db, node: ps}, maxK, opt)
}

// MaterializeEdgePoints builds the K-NN lists over an edge-resident point
// set (Section 5.2: endpoint lists are seeded with both direct offsets).
func (db *DB) MaterializeEdgePoints(ps *EdgePoints, maxK int, opt *MatOptions) (*Materialization, error) {
	return db.materialize(&Materialization{db: db, edge: ps}, maxK, opt)
}

// materialize runs the all-NN build over the DB's in-memory graph, as
// BuildHubLabelIndex does, so a disk-backed DB's set-up reads no adjacency
// page; packs the lists into a fresh memory page file attached to the DB's
// shared buffer pool as the "mat" tenant, through which they are read back
// and maintained; and registers the result with the set.
func (db *DB) materialize(mat *Materialization, maxK int, opt *MatOptions) (*Materialization, error) {
	file := storage.NewMemFile(storage.DefaultPageSize)
	bm := db.pool.attach("mat", file, opt.bufferPages())
	var err error
	if mat.m, err = core.NewSearcher(db.graph.g).MatBuildBuffer(mat.set().view(), maxK, file, bm, nil); err != nil {
		_ = bm.Detach()
		return nil, err
	}
	register(&mat.set().mats, mat, true)
	return mat, nil
}

// set returns the tracked point set, nil once detached.
func (m *Materialization) set() *trackedSet {
	switch {
	case m.node != nil:
		return &m.node.trackedSet
	case m.edge != nil:
		return &m.edge.trackedSet
	}
	return nil
}

// MaxK returns the largest query k the lists support.
func (m *Materialization) MaxK() int { return m.m.MaxK() }

// NodePoints returns the tracked node-resident point set, nil when the
// materialization tracks an edge-resident one. For a materialization
// reopened with OpenMaterialization this is the set reconstructed from the
// file — the set to query with.
func (m *Materialization) NodePoints() *NodePoints { return m.node }

// EdgePoints returns the tracked edge-resident point set, nil when the
// materialization tracks a node-resident one.
func (m *Materialization) EdgePoints() *EdgePoints { return m.edge }

// Flush writes dirty list pages back to the file.
func (m *Materialization) Flush() error { return m.m.Flush() }

// Close unregisters the materialization from its point set, detaches its
// list pages from the shared buffer pool (flushing dirty ones), and closes
// the backing files of a reopened materialization. Queries through this
// materialization must not be in flight and the materialization must not be
// used afterwards; a second Close is a no-op.
func (m *Materialization) Close() error {
	if set := m.set(); set != nil {
		register(&set.mats, m, false)
	}
	err := m.m.Close()
	if m.file != nil { // reopened: file and jfile come as a pair
		err = errors.Join(err, m.file.Close(), m.jfile.Close())
		m.file, m.jfile = nil, nil
	}
	return err
}

// detach cuts the materialization off a point set it can no longer follow
// (see ErrSubstrateDetached): unregistered and tracking nothing, it is
// never planned and an explicit hint to it reports a foreign point set.
func (m *Materialization) detach() {
	register(&m.set().mats, m, false)
	m.node, m.edge, m.pending = nil, nil, nil
}

// repairLists runs the list half of op under ec: the insertion algorithm of
// Section 4.1, or the two-step border-node deletion of Fig 10.
func (m *Materialization) repairLists(ec *exec.Ctx, op *setOp) (Stats, error) {
	s := m.db.searcher.Bound(ec)
	if op.insert {
		return s.MatInsert(m.m, points.PointID(op.p), op.loc.toLoc())
	}
	return s.MatDelete(m.m, points.PointID(op.p), op.loc.toLoc())
}

// --- operation framing -----------------------------------------------------

// begin opens the journaled operation covering op. rec is the committed
// point record (persisted materializations journal it as the operation
// descriptor).
func (m *Materialization) begin(op *setOp, rec core.PointRecord) error {
	if err := m.m.BeginRepair(matOpMeta(op, rec)); err != nil {
		return err
	}
	m.pending = op
	return nil
}

// commit flips the operation committed; on failure the operation stays
// pending and Recover rolls it back.
func (m *Materialization) commit(p PointID, rec core.PointRecord) error {
	if err := m.m.CommitRepair(points.PointID(p), rec); err != nil {
		return fmt.Errorf("graphrnn: maintenance commit failed; call Recover before further use: %w", err)
	}
	m.pending = nil
	return nil
}

// rollbackPending undoes the pending operation: lists from the journal's
// before-images, then the point-set mutation (a no-op once another
// materialization of the same operation, or the inline abort, undid it).
func (m *Materialization) rollbackPending() error {
	if err := m.m.RollbackRepair(); err != nil {
		return err
	}
	if m.pending != nil {
		if err := m.set().undo(m.pending); err != nil {
			return err
		}
		m.pending = nil
	}
	return nil
}

// matOpMeta encodes the operation descriptor logged as the journal's first
// record: op kind, point id and the would-be committed point record.
// Rollback is driven by before-images, so the descriptor is informational
// (it makes journals self-describing for debugging).
func matOpMeta(op *setOp, rec core.PointRecord) []byte {
	buf := make([]byte, 1+4+16)
	if op.insert {
		buf[0] = 1
	} else {
		buf[0] = 2
	}
	binary.LittleEndian.PutUint32(buf[1:], uint32(op.p))
	binary.LittleEndian.PutUint32(buf[5:], uint32(rec.U))
	binary.LittleEndian.PutUint32(buf[9:], uint32(rec.V))
	binary.LittleEndian.PutUint64(buf[13:], math.Float64bits(rec.Pos))
	return buf
}
