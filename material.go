package graphrnn

import (
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
// A materialization is a cache of the process: its lists live in a
// memory-backed page file and are built again, not reopened, after a
// restart (the hub-label index, whose build costs far more, is the
// substrate that persists; see HubLabelIndex.SaveTo).
//
// A materialization is registered with the point set it was built over:
// mutate the set through its Insert / Remove (or Place / Delete) and the
// lists are repaired with it, atomically. The repair records the
// before-image of every list it touches, and an operation abandoned for any
// reason — cancellation, deadline, budget exhaustion, an I/O error — is
// rolled back, leaving the lists and the tracked point set bit-identical to
// the pre-operation state. See RepairState / Recover for the rare case
// where the rollback itself cannot complete.
type Materialization struct {
	db   *DB
	m    *core.Materialized
	node *NodePoints
	edge *EdgePoints

	// pending is the point-set half of an uncommitted maintenance
	// operation, so Recover can undo it when the inline rollback failed.
	pending *setOp
}

// MatOptions configures a materialization.
type MatOptions struct {
	// BufferPages is the list file's frame quota within the DB's shared
	// buffer pool (default 64). On a DB-owned pool the capacity grows by
	// this amount, matching the former dedicated list buffer.
	BufferPages int
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

// set returns the tracked point set.
func (m *Materialization) set() *trackedSet {
	if m.node != nil {
		return &m.node.trackedSet
	}
	return &m.edge.trackedSet
}

// MaxK returns the largest query k the lists support.
func (m *Materialization) MaxK() int { return m.m.MaxK() }

// NodePoints returns the tracked node-resident point set, nil when the
// materialization tracks an edge-resident one.
func (m *Materialization) NodePoints() *NodePoints { return m.node }

// EdgePoints returns the tracked edge-resident point set, nil when the
// materialization tracks a node-resident one.
func (m *Materialization) EdgePoints() *EdgePoints { return m.edge }

// Flush writes dirty list pages back to the file.
func (m *Materialization) Flush() error { return m.m.Flush() }

// Close unregisters the materialization from its point set and detaches
// its list pages from the shared buffer pool. Queries through this
// materialization must not be in flight and the materialization must not be
// used afterwards; a second Close is a no-op.
func (m *Materialization) Close() error {
	register(&m.set().mats, m, false)
	return m.m.Close()
}

// repairLists runs the list half of op under ec: the insertion algorithm of
// Section 4.1, or the two-step border-node deletion of Fig 10.
func (m *Materialization) repairLists(ec *exec.Ctx, op *setOp) (Stats, error) {
	s := m.db.searcher.Bound(ec)
	if op.insert {
		return s.MatInsert(m.m, points.PointID(op.p), op.loc)
	}
	return s.MatDelete(m.m, points.PointID(op.p), op.loc)
}

// --- operation framing -----------------------------------------------------

// begin opens the repair operation covering op.
func (m *Materialization) begin(op *setOp) error {
	if err := m.m.BeginRepair(); err != nil {
		return err
	}
	m.pending = op
	return nil
}

// commit ends the operation, dropping its before-images.
func (m *Materialization) commit() {
	m.m.CommitRepair()
	m.pending = nil
}

// rollbackPending undoes the pending operation: lists from their
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

// RepairState reports whether a materialization carries an uncommitted
// maintenance operation.
type RepairState int

const (
	// RepairClean: no maintenance operation is pending; the lists match
	// the tracked point set exactly.
	RepairClean RepairState = iota
	// RepairPendingRollback: an abandoned operation could not be rolled
	// back (its inline rollback hit an I/O error). Call Recover — or run
	// any maintenance operation, which recovers first — before trusting
	// query results.
	RepairPendingRollback
)

func (s RepairState) String() string {
	if s == RepairClean {
		return "clean"
	}
	return "pending-rollback"
}

// RepairState returns the materialization's repair state. Abandoned
// operations roll back inline, so the state is RepairClean in every
// ordinary history; RepairPendingRollback survives only a failed rollback.
func (m *Materialization) RepairState() RepairState {
	if m.m.RepairPending() || m.pending != nil {
		return RepairPendingRollback
	}
	return RepairClean
}

// Recover rolls back an uncommitted maintenance operation, restoring the
// lists and the tracked point set to the state of the last committed
// operation. It reports whether an operation was pending. Recover is
// idempotent and safe to call at any time maintenance is quiescent; the
// set's Insert / Remove call it implicitly when they find a pending
// operation.
func (m *Materialization) Recover() (bool, error) {
	if m.RepairState() == RepairClean {
		return false, nil
	}
	if err := m.rollbackPending(); err != nil {
		return true, err
	}
	return true, nil
}
