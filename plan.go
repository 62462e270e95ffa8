package graphrnn

import (
	"fmt"

	"graphrnn/internal/core"
)

// This file is the query planner: it validates a declarative Query, unifies
// its node-/edge-resident shapes, and resolves the substrate the engine
// runs — the piece that lets callers stop hard-coding an algorithm at every
// call site. The policy, in order:
//
//  1. An explicit Algorithm that can run the query's shape is honored.
//  2. An explicit Algorithm that cannot (hub-label on an edge-resident set,
//     k beyond an index's maxK, an index over a different point set) falls
//     back down the auto chain — unless Query.Strict, which makes the
//     mismatch a hard error.
//  3. Auto (the zero Algorithm) picks the fastest substrate of the queried
//     point set (bichromatic: of the sites): hub-label intersection when an
//     index over the set covers the shape, eager-M when a materialization
//     over it does, and otherwise plain expansion — eager on disk-backed
//     graphs (lowest page I/O, §3.2) and on low-diameter networks, lazy on
//     memory-backed high-diameter networks (average degree <= 3,
//     road-like), where its verification-side pruning saves CPU and no I/O
//     is at stake (§6.1).
//  4. A directed graph (one-way arcs) serves node-resident sets through
//     hub-label, eager, lazy-EP and brute force only: lazy and eager-M are
//     incompatible hints there (ErrUndirectedOnly under Strict) and auto
//     never picks them.
//
// Substrates belong to the point set they were built or opened over
// (BuildHubLabelIndex / OpenHubLabelIndex, MaterializeNodePoints /
// MaterializeEdgePoints register them there, Close unregisters): the planner reads the queried set's own, the most recently
// built of each kind wins, and an index over one set never displaces the
// substrates of another.

// lazyMaxAvgDegree is the planner's diameter proxy: at average degree <= 3
// (road networks sit near 2.5) expansion frontiers grow slowly enough that
// lazy's verification side effects prune effectively; above it the paper's
// "exponential expansion" effect makes lazy hopeless (Fig 15).
const lazyMaxAvgDegree = 3.0

// Plan records the planner's decision for one query.
type Plan struct {
	// Kind of the planned query.
	Kind Kind
	// Edge reports an edge-resident (unrestricted network) shape.
	Edge bool
	// Algorithm is the substrate the engine runs. For auto-selected plans
	// it carries the attached index or materialization it resolved to.
	Algorithm Algorithm
	// Fallback reports that the hinted Algorithm could not run this shape
	// and was replaced.
	Fallback bool
	// Reason states why the substrate was chosen, in one stable line.
	Reason string
}

// Explain renders the decision as one stable line, e.g.
//
//	rnn via hub-label: attached hub-label index answers this shape by label intersection
func (p Plan) Explain() string {
	shape := p.Kind.String()
	if p.Edge {
		shape += "/edge"
	}
	return fmt.Sprintf("%s via %s: %s", shape, p.Algorithm, p.Reason)
}

// Plan resolves the substrate the engine would run q with, without
// executing anything. The file-level comment on plan.go documents the
// policy; Result.Plan echoes the same decision after Run.
func (db *DB) Plan(q Query) (Plan, error) {
	pl, err := db.plan(q)
	return pl.plan, err
}

// planned is a validated Query with its views, target and substrate
// resolved — everything the engine dispatch needs.
type planned struct {
	plan  Plan
	k     int
	loc   core.Loc
	route []NodeID
	// The data set and, for bichromatic kinds, the competitors; both in
	// the residency plan.Edge names.
	points, sites core.PointSet
	// set is the mutable set behind tracked() — the one whose substrates
	// can answer the query; nil for views of a paged snapshot.
	set *trackedSet
}

// tracked returns the set a substrate must have been built over: the data
// set, or the competitors of a bichromatic query.
func (pl *planned) tracked() core.PointSet {
	if pl.plan.Kind == KindBichromatic {
		return pl.sites
	}
	return pl.points
}

func planErr(format string, args ...any) (planned, error) {
	return planned{}, fmt.Errorf("graphrnn: "+format, args...)
}

// plan validates q and resolves the planned execution.
func (db *DB) plan(q Query) (planned, error) {
	pl := planned{k: q.K, route: q.Route}
	pl.plan.Kind = q.Kind
	if q.Kind < KindRNN || q.Kind > KindKNN {
		return planErr("unknown query kind %d", int(q.Kind))
	}
	if q.K < 1 {
		return planErr("k must be >= 1, got %d", q.K)
	}
	if q.Points == nil {
		return planErr("query names no point set (Query.Points)")
	}
	if q.Sites != nil && q.Kind != KindBichromatic {
		return planErr("sites are only meaningful for bichromatic queries (kind %s)", q.Kind)
	}
	if q.Kind == KindBichromatic && q.Sites == nil {
		return planErr("bichromatic query requires a site set (Query.Sites)")
	}
	if len(q.Route) > 0 && q.Kind != KindContinuous {
		return planErr("route is only meaningful for continuous queries (kind %s)", q.Kind)
	}
	if q.Kind == KindContinuous && len(q.Route) == 0 {
		return planErr("continuous query requires a route (Query.Route)")
	}

	switch ps := q.Points.(type) {
	case pointsArg:
		v := ps.nodeView()
		pl.points.Node, pl.set = v.v, v.set
	case edgeArg:
		v := ps.edgeView()
		pl.plan.Edge = true
		pl.points.Edge, pl.set = v.v, v.set
	default:
		return planErr("unsupported point set type %T", q.Points)
	}
	if q.Kind == KindBichromatic {
		switch ss := q.Sites.(type) {
		case pointsArg:
			if pl.plan.Edge {
				return planErr("candidates are edge-resident but sites are node-resident; both sets must share one residency")
			}
			v := ss.nodeView()
			pl.sites.Node, pl.set = v.v, v.set
		case edgeArg:
			if !pl.plan.Edge {
				return planErr("candidates are node-resident but sites are edge-resident; both sets must share one residency")
			}
			v := ss.edgeView()
			pl.sites.Edge, pl.set = v.v, v.set
		default:
			return planErr("unsupported site set type %T", q.Sites)
		}
	}

	// Targets: node-resident sets take node targets; edge-resident sets
	// take any Location. Continuous queries ignore Target.
	if q.Kind != KindContinuous {
		if !pl.plan.Edge && (q.Target.U != q.Target.V || q.Target.Pos != 0) {
			return planErr("node-resident point sets take node targets (NodeLocation); got edge location (%d,%d)@%v",
				q.Target.U, q.Target.V, q.Target.Pos)
		}
		pl.loc = db.graph.loc(q.Target)
	}

	if err := db.resolveAlgorithm(q, &pl); err != nil {
		return planned{}, err
	}
	return pl, nil
}

// resolveAlgorithm fills pl.plan.{Algorithm,Fallback,Reason} per the policy
// documented at the top of this file.
func (db *DB) resolveAlgorithm(q Query, pl *planned) error {
	if q.Kind == KindKNN {
		// One substrate answers forward KNN, so a named algorithm is an
		// incompatible hint like any other: a hard error under Strict, a
		// reported fallback otherwise.
		pl.plan.Algorithm = Algorithm{kind: algoExpansion}
		pl.plan.Reason = "forward network expansion is the only KNN substrate"
		if q.Algorithm.kind != algoAuto {
			if q.Strict {
				return fmt.Errorf("graphrnn: knn has a single substrate; it does not take an algorithm (got %s)", q.Algorithm)
			}
			pl.plan.Fallback = true
			pl.plan.Reason = fmt.Sprintf("hinted %s does not apply to knn (single substrate); fell back to expansion", q.Algorithm)
		}
		return nil
	}
	if q.Algorithm.kind != algoAuto {
		if q.Strict {
			// The named algorithm runs or errors; the planner never
			// substitutes.
			if q.Algorithm.kind.symmetricOnly() {
				if err := db.undirectedOnly(q.Algorithm.String()); err != nil {
					return err
				}
			}
			pl.plan.Algorithm = q.Algorithm
			pl.plan.Reason = "explicit algorithm (strict)"
			return nil
		}
		why := db.incompatible(q.Algorithm, pl)
		if why == "" {
			pl.plan.Algorithm = q.Algorithm
			pl.plan.Reason = "explicit algorithm"
			return nil
		}
		db.autoSelect(pl, q.Algorithm.kind)
		pl.plan.Fallback = true
		pl.plan.Reason = fmt.Sprintf("hinted %s cannot run this shape (%s); fell back to %s",
			q.Algorithm, why, pl.plan.Algorithm)
		return nil
	}
	db.autoSelect(pl, algoAuto)
	return nil
}

// autoSelect walks the auto chain, skipping the substrate kind `avoid` (the
// hinted substrate a fallback is escaping).
func (db *DB) autoSelect(pl *planned, avoid algoKind) {
	if avoid != algoHub && pl.set != nil {
		if idx := latest(&pl.set.hubs); idx != nil && db.incompatible(HubLabel(idx), pl) == "" {
			pl.plan.Algorithm = HubLabel(idx)
			pl.plan.Reason = "attached hub-label index answers this shape by label intersection"
			return
		}
	}
	if avoid != algoEagerM && pl.set != nil {
		if m := latest(&pl.set.mats); m != nil && db.incompatible(EagerM(m), pl) == "" {
			pl.plan.Algorithm = EagerM(m)
			pl.plan.Reason = "attached materialization serves the K-NN list probes (eager-M)"
			return
		}
	}
	if db.disk == nil && db.graph.AverageDegree() <= lazyMaxAvgDegree && !db.graph.Directed() {
		pl.plan.Algorithm = Lazy()
		pl.plan.Reason = "lazy expansion saves CPU on a memory-backed high-diameter network"
		return
	}
	pl.plan.Algorithm = Eager()
	pl.plan.Reason = "eager expansion prunes with range-NN probes at the lowest page I/O"
}

// incompatible reports why algo cannot run the planned shape ("" when it
// can). The expansion algorithms run every shape — on a directed graph,
// all but lazy and eager-M, which need symmetric distances
// (ErrUndirectedOnly); the indexed substrates are bound to the k range they
// were built for and — the test an explicit hint needs, the set's own
// substrates pass it by construction — to the point set (bichromatic: the
// sites) they track.
func (db *DB) incompatible(algo Algorithm, pl *planned) string {
	if algo.kind.symmetricOnly() && db.graph.Directed() {
		return "it needs symmetric distances and the graph is directed"
	}
	switch algo.kind {
	case algoHub:
		h := algo.hub
		if h == nil || h.idx == nil {
			return "no hub-label index"
		}
		if pl.plan.Edge {
			return "hub-label supports node-resident point sets only"
		}
		if pl.plan.Kind != KindBichromatic && pl.k > h.MaxK() {
			return fmt.Sprintf("k=%d exceeds the index's materialized thresholds (maxK %d)", pl.k, h.MaxK())
		}
		if h.node == nil || &h.node.trackedSet != pl.set {
			return "the index tracks a different point set"
		}
	case algoEagerM:
		m := algo.mat
		if m == nil || m.m == nil {
			return "no materialization"
		}
		if pl.k > m.MaxK() {
			return fmt.Sprintf("k=%d exceeds the materialized lists (maxK %d)", pl.k, m.MaxK())
		}
		if m.set() != pl.set {
			return "the materialization tracks a different point set"
		}
	}
	return ""
}
