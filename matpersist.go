package graphrnn

import (
	"fmt"
	"os"

	"graphrnn/internal/core"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// This file is the durability half of materialization maintenance: a
// materialization can be persisted into a single paged file (SaveTo) and
// served back in a later process (OpenMaterialization) without paying the
// all-NN build again. A reopened materialization runs its maintenance
// operations through an on-disk write-ahead journal (<path>.journal):
// every operation stages the before-image of each list it touches in the
// journal, commits with a single header-page flip, and an operation
// interrupted by a crash is rolled back on the next open — the lists and
// the tracked point set always reopen in the state of the last committed
// operation.

// RepairState reports whether a materialization carries an uncommitted
// maintenance operation.
type RepairState int

const (
	// RepairClean: no maintenance operation is pending; the lists match
	// the tracked point set exactly.
	RepairClean RepairState = iota
	// RepairPendingRollback: an abandoned operation could not be rolled
	// back (its inline rollback hit an I/O error, or the process crashed
	// mid-repair and the file has not been reopened). Call Recover — or
	// run any maintenance operation, which recovers first — before
	// trusting query results.
	RepairPendingRollback
)

func (s RepairState) String() string {
	if s == RepairClean {
		return "clean"
	}
	return "pending-rollback"
}

// RepairState returns the materialization's journal state. Abandoned
// operations roll back inline, so the state is RepairClean in every
// ordinary history; RepairPendingRollback survives only a failed rollback.
func (m *Materialization) RepairState() RepairState {
	if m.m.RepairPending() || m.pending != nil {
		return RepairPendingRollback
	}
	return RepairClean
}

// Recover rolls back an uncommitted maintenance operation, restoring the
// lists (and, for an operation abandoned in this process, the tracked
// point set) to the state of the last committed operation. It reports
// whether an operation was pending. Recover is idempotent and safe to call
// at any time maintenance is quiescent; the set's Insert / Remove call it
// implicitly when they find a pending operation.
func (m *Materialization) Recover() (bool, error) {
	if m.RepairState() == RepairClean {
		return false, nil
	}
	if err := m.rollbackPending(); err != nil {
		return true, err
	}
	return true, nil
}

// SaveTo persists the materialization — lists and the tracked point set —
// into a fresh page file at path, so a later process can serve it through
// OpenMaterialization. Like the hub-label SaveTo it is a snapshot: the
// in-memory materialization keeps running independently afterwards, and
// only a materialization built in this process can be saved (a reopened
// one is already persisted, and committed maintenance updates its file in
// place).
func (m *Materialization) SaveTo(path string) error {
	if m.file != nil {
		return fmt.Errorf("graphrnn: materialization was opened from a file; committed maintenance already persists there")
	}
	if m.RepairState() != RepairClean {
		return fmt.Errorf("graphrnn: unrecovered maintenance operation pending; call Recover before saving")
	}
	kind, pts := m.snapshotPoints()
	f, err := storage.CreateOSFile(path, m.m.Buffer().File().PageSize())
	if err != nil {
		return err
	}
	if err := core.MatSave(m.m, kind, pts, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshotPoints encodes the tracked point set as the dense
// point-id -> location table the file persists.
func (m *Materialization) snapshotPoints() (byte, []core.PointRecord) {
	if m.node != nil {
		tab := m.node.ns.Table()
		pts := make([]core.PointRecord, len(tab))
		for i, n := range tab {
			if n < 0 {
				pts[i] = core.PointAbsent
			} else {
				pts[i] = core.PointRecord{U: n, V: n}
			}
		}
		return core.MatKindNode, pts
	}
	tab := m.edge.es.Table()
	pts := make([]core.PointRecord, len(tab))
	for i, loc := range tab {
		if loc.U < 0 {
			pts[i] = core.PointAbsent
		} else {
			pts[i] = core.PointRecord{U: loc.U, V: loc.V, Pos: loc.Pos}
		}
	}
	return core.MatKindEdge, pts
}

// OpenMaterialization reopens a materialization previously persisted at
// path — the restart path: no all-NN build runs, list pages fault in
// through the shared buffer pool on demand, and the tracked point set is
// reconstructed from the file (reach it through NodePoints / EdgePoints).
// An uncommitted maintenance operation left by a crash is rolled back from
// the write-ahead journal at <path>.journal before the lists are served.
// Maintenance on the reopened materialization is durable: each committed
// operation updates the file in place. Like MaterializeNodePoints, the
// reopened materialization is registered with its (reconstructed) set.
func (db *DB) OpenMaterialization(path string, opt *MatOptions) (*Materialization, error) {
	if err := db.undirectedOnly("materialized K-NN lists"); err != nil {
		return nil, err
	}
	// The page size lives in the file header, so reopening needs no
	// recollection of the build-time options.
	pageSize, err := core.MatFileHeader.PageSize(path)
	if err != nil {
		return nil, err
	}
	file, err := storage.OpenOSFile(path, pageSize)
	if err != nil {
		return nil, err
	}
	// A journal this call creates goes again if the open is refused; one
	// that was already there may hold a pending operation and stays.
	jpath := path + ".journal"
	var jfile storage.PagedFile
	_, statErr := os.Stat(jpath)
	created := statErr != nil
	if created {
		jfile, err = storage.CreateOSFile(jpath, pageSize)
	} else {
		jfile, err = storage.OpenOSFile(jpath, pageSize)
	}
	if err != nil {
		file.Close()
		return nil, err
	}
	bm := db.pool.attach("mat", file, opt.bufferPages())
	fail := func(err error) (*Materialization, error) {
		_ = bm.Detach()
		file.Close()
		jfile.Close()
		if created {
			os.Remove(jpath)
		}
		return nil, err
	}
	cm, kind, pts, err := core.MatOpen(file, bm, jfile)
	if err != nil {
		return fail(err)
	}
	if opt != nil && opt.Durability == DurabilityFsync {
		cm.SetDurable(true)
	}
	if cm.NumNodes() != db.store.NumNodes() {
		return fail(fmt.Errorf("graphrnn: materialization file covers %d nodes, graph has %d",
			cm.NumNodes(), db.store.NumNodes()))
	}
	mat := &Materialization{db: db, m: cm, file: file, jfile: jfile}
	switch kind {
	case core.MatKindNode:
		nodes := make([]graph.NodeID, len(pts))
		for i, r := range pts {
			if r.U < 0 {
				nodes[i] = -1
			} else {
				nodes[i] = r.U
			}
		}
		ns, err := points.RestoreNodeSet(db.store.NumNodes(), nodes)
		if err != nil {
			return fail(err)
		}
		mat.node = newNodePoints(db, ns)
	case core.MatKindEdge:
		eps := make([]points.EdgePoint, len(pts))
		for i, r := range pts {
			if r.U < 0 {
				eps[i] = points.EdgePoint{U: -1}
			} else {
				if _, ok := db.graph.EdgeWeight(NodeID(r.U), NodeID(r.V)); !ok {
					return fail(fmt.Errorf("graphrnn: persisted point %d lies on edge (%d,%d): %w",
						i, r.U, r.V, ErrMissingEdge))
				}
				eps[i] = points.EdgePoint{U: r.U, V: r.V, Pos: r.Pos}
			}
		}
		es, err := points.RestoreEdgeSet(eps)
		if err != nil {
			return fail(err)
		}
		mat.edge = newEdgePoints(db, es)
	default:
		return fail(fmt.Errorf("graphrnn: unknown point-set kind %d in %q", kind, path))
	}
	register(&mat.set().mats, mat, true)
	return mat, nil
}
