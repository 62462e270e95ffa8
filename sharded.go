package graphrnn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphrnn/internal/core"
	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/shard"
)

// This file is the scatter-gather serving layer: one DB per shard over a
// region of an edge-cut node partition, a coordinator that fans a Query
// out with per-shard deadlines and merges the confirmed members. The
// paper's RkNN algorithms confirm each member by a local expansion around
// the member itself, so results union cleanly across a partition of the
// point set — the property this layer exploits.
//
// # Exactness
//
// Every shard serves the full (immutable) topology but only a subset of
// the points: the points on nodes of its region, plus replicas of the
// points on the halo ring just outside it. Removing competitors never
// removes members — a point confirmed against the full point set is
// confirmed a fortiori against a subset, at identical (exact) shortest
// path distances — so the union of shard-local answers over owned points
// is a superset of the true answer. The halo shrinks that superset
// cheaply near region borders; the coordinator then confirms every
// merged candidate against the full point set by the per-candidate
// expansion the brute-force oracle runs: answers are bit-identical to
// unsharded expansion answers — same distances, same epsilon bounds, same
// tie handling. No member is lost at cut edges, and no false candidate
// survives.
//
// Regions bound expansions; a hub index has none to bound. With HubLabelK
// the coordinator holds an index over the full point set, and a
// monochromatic query it covers (no algorithm hint, k <= HubLabelK) is
// answered there outright, with no fan-out: the unsharded hub-label answer,
// bit for bit. That answer equals the brute-force one up to what separates
// the two substrates anyway: a label sum d(p→h)+d(h→q) and a path sum can
// differ in the last bit, so a point at exactly its k-th-neighbor distance
// may tie under one and not the other (ROADMAP's FuzzSubstrateAgreement
// item owns that; on integer weights both agree exactly).
//
// KindBichromatic partitions the candidate set and replicates the
// (typically small) site set to every shard; KindKNN is answered by the
// coordinator's global engine — a forward distance search does not
// decompose over owned-point unions without a distance merge.

// ShardRunner executes one shard's sub-query. By default the Sharded value
// runs its own engines; a Runner is a seam for wrapping each sub-query
// (timing it, tracing it) before it reaches engines built elsewhere,
// typically another Sharded's RunShard. The benchmark's span-recording
// runner is its one implementation. Candidates must be global point ids;
// the coordinator re-verifies every candidate, so a runner that returns
// garbage degrades performance, not correctness.
type ShardRunner interface {
	RunShard(ctx context.Context, shard int, q Query) (*ShardResult, error)
}

// ShardResult is one shard's contribution to a scatter-gather query: the
// shard-locally confirmed members among the points the shard owns, as
// global point ids in ascending order, plus the work performed.
type ShardResult struct {
	Candidates []PointID
	Stats      Stats
}

// ShardOptions configures DB.Shard.
type ShardOptions struct {
	// Shards is the number of regions (>= 1).
	Shards int
	// HaloDepth is the width, in hops, of the replicated frontier ring
	// around each region: points on foreign nodes within HaloDepth hops
	// serve as local competitors, shrinking the candidate supersets the
	// coordinator must verify. 0 defaults to 1; negative disables the
	// halo entirely (still exact — the verify pass carries correctness
	// alone, at more verification work).
	HaloDepth int
	// Seed drives the deterministic partitioner: identical
	// (graph, Shards, HaloDepth, Seed) tuples produce identical
	// partitions, so a Runner that delegates to a second Sharded built
	// from the same options addresses the same regions.
	Seed int64
	// Sites is the bichromatic site set, replicated to every shard.
	// Queries of KindBichromatic require it.
	Sites *NodePoints
	// HubLabelK, when positive, builds the hub labeling of the graph and a
	// reverse index (maxK = HubLabelK) over the full point set, on the
	// coordinator: rnn and continuous queries with no algorithm hint and
	// k <= HubLabelK are answered there, without fan-out. The shards get no
	// index — they serve what the coordinator's does not cover.
	HubLabelK int
	// MatK, when positive, materializes per-shard K-NN lists (maxK =
	// MatK) for the eager-M substrate.
	MatK int
	// Build controls the labeling construction (worker count). The
	// coordinator's labels are served from memory.
	Build BuildOptions
	// DiskBacked serves each shard's adjacency from its own paged file,
	// attached to the parent DB's buffer pool as one tenant per shard.
	// Default shares the parent's in-memory topology (zero copy).
	DiskBacked bool
	// BufferPages is the per-shard tenant quota when DiskBacked.
	BufferPages int
	// Runner, when non-nil, makes the Sharded a pure coordinator: no
	// local shard engines are built and every sub-query goes through the
	// runner. The partition is still computed locally; the runner's
	// engines must come from the same cut (see Seed) for their candidates
	// to be the shards the coordinator expects.
	Runner ShardRunner
}

func (o *ShardOptions) haloDepth() int {
	switch {
	case o.HaloDepth < 0:
		return 0
	case o.HaloDepth == 0:
		return 1
	default:
		return o.HaloDepth
	}
}

// shardHandle is one in-process shard: its own engine (and so its own
// planner and substrates) over the shared topology, serving the shard's
// owned points plus halo replicas.
type shardHandle struct {
	db    *DB
	ps    *NodePoints
	sites *NodePoints
	// toGlobal maps a local point id to its global id; owned reports
	// whether the local point is owned (halo replicas are competitors
	// only and never proposed as candidates).
	toGlobal []PointID
	owned    []bool
	mat      *Materialization
}

// shardCounters hold one shard's serving counters (atomic: RunBatch fans
// queries out over a worker pool).
type shardCounters struct {
	queries    atomic.Int64
	errors     atomic.Int64
	candidates atomic.Int64
	latencyNS  atomic.Int64
}

// Sharded executes queries by scatter-gather over a partition of the
// point set. Build one with DB.Shard; it is safe for concurrent use
// (queries only — the underlying point sets must be quiescent, as with
// every query surface of the package).
type Sharded struct {
	db     *DB
	ps     *NodePoints
	sites  *NodePoints
	part   *shard.Partition
	runner ShardRunner
	// handles are the in-process shard engines; nil in pure-coordinator
	// mode (Runner set).
	handles []*shardHandle
	// sharedPool: the shards are in-process and DiskBacked, so they read
	// through db's buffer pool, whose pool-wide read counter already meters
	// the fan-out and the verify pass against one MaxIOReads.
	sharedPool bool
	// hub (HubLabelK > 0) is the coordinator's index over the full set ps;
	// it answers the queries it covers in place of a fan-out. It is not
	// registered with ps: the parent DB plans as before.
	hub *HubLabelIndex
	// ownedPoints / haloPoints are the static per-shard point counts.
	ownedPoints []int
	haloPoints  []int

	queries        atomic.Int64
	globalRuns     atomic.Int64
	fanOuts        atomic.Int64
	candidates     atomic.Int64
	verifyRuns     atomic.Int64
	verifyRejected atomic.Int64
	members        atomic.Int64
	shardErrors    atomic.Int64
	perShard       []shardCounters
}

// Shard partitions ps for scatter-gather serving: the graph's node set is
// cut into opt.Shards balanced regions, each shard gets an engine over
// the shared topology serving the region's points plus a halo ring of
// replicated competitors, and the returned Sharded coordinates queries
// across them (Run / RunBatch). With opt.Runner set no local engines are
// built; sub-queries go through the runner instead (see ShardRunner). The
// hub index (opt.HubLabelK) is the coordinator's either way.
func (db *DB) Shard(ps *NodePoints, opt *ShardOptions) (*Sharded, error) {
	if opt == nil || opt.Shards < 1 {
		return nil, fmt.Errorf("graphrnn: ShardOptions.Shards must be >= 1")
	}
	if ps == nil || ps.db != db {
		return nil, fmt.Errorf("graphrnn: Shard needs a point set of this DB")
	}
	if err := db.undirectedOnly("sharding cuts regions and halo rings by undirected hops"); err != nil {
		return nil, err
	}
	if opt.Sites != nil && opt.Sites.db != db {
		return nil, fmt.Errorf("graphrnn: ShardOptions.Sites belongs to a different DB")
	}
	part, err := shard.Cut(db.graph.g, opt.Shards, opt.haloDepth(), opt.Seed)
	if err != nil {
		return nil, err
	}
	s := &Sharded{
		db: db, ps: ps, sites: opt.Sites, part: part, runner: opt.Runner,
		sharedPool:  opt.Runner == nil && opt.DiskBacked,
		ownedPoints: make([]int, opt.Shards),
		haloPoints:  make([]int, opt.Shards),
		perShard:    make([]shardCounters, opt.Shards),
	}
	for _, p := range ps.Points() {
		n, ok := ps.NodeOf(p)
		if !ok {
			continue
		}
		s.ownedPoints[part.ShardOf(graph.NodeID(n))]++
	}
	for sh := range opt.Shards {
		for _, hn := range part.Halo[sh] {
			if _, ok := ps.PointAt(NodeID(hn)); ok {
				s.haloPoints[sh]++
			}
		}
	}
	if opt.HubLabelK > 0 {
		s.hub, err = db.buildHubLabelIndex(ps, opt.HubLabelK, &HubLabelOptions{Build: opt.Build}, false)
		if err != nil {
			return nil, err
		}
	}
	if opt.Runner != nil {
		return s, nil
	}
	if err := s.buildHandles(opt); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// buildHandles creates the in-process shard engines and their point
// sets: owned points first (ascending global id), then halo replicas
// (ascending node id) — a deterministic local-id layout every build
// reproduces from the same inputs.
func (s *Sharded) buildHandles(opt *ShardOptions) error {
	s.handles = make([]*shardHandle, s.part.Shards)
	for sh := range s.part.Shards {
		var shOpt *Options
		var pool *BufferPool
		if opt.DiskBacked {
			shOpt, pool = &Options{DiskBacked: true, BufferPages: opt.BufferPages}, s.db.pool
		}
		shDB, err := openDB(s.db.graph, shOpt, BFSLayout(), pool)
		if err != nil {
			return err
		}
		h := &shardHandle{db: shDB, ps: shDB.NewNodePoints()}
		s.handles[sh] = h
		for _, gp := range s.ps.Points() {
			n, ok := s.ps.NodeOf(gp)
			if !ok || s.part.ShardOf(graph.NodeID(n)) != sh {
				continue
			}
			if _, err := h.ps.Place(n); err != nil {
				return err
			}
			h.toGlobal = append(h.toGlobal, gp)
			h.owned = append(h.owned, true)
		}
		for _, hn := range s.part.Halo[sh] {
			gp, ok := s.ps.PointAt(NodeID(hn))
			if !ok {
				continue
			}
			if _, err := h.ps.Place(NodeID(hn)); err != nil {
				return err
			}
			h.toGlobal = append(h.toGlobal, gp)
			h.owned = append(h.owned, false)
		}
		if s.sites != nil {
			h.sites = shDB.NewNodePoints()
			for _, sp := range s.sites.Points() {
				n, ok := s.sites.NodeOf(sp)
				if !ok {
					continue
				}
				if _, err := h.sites.Place(n); err != nil {
					return err
				}
			}
		}
	}
	if opt.MatK <= 0 {
		return nil
	}
	// The materializations are CPU-bound and independent per shard, so they
	// build concurrently. Everything above stays sequential: it fixes the
	// local point-id layout and the buffer-pool tenant order, which must
	// not depend on scheduling.
	errs := make([]error, s.part.Shards)
	var wg sync.WaitGroup
	for sh, h := range s.handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.mat, errs[sh] = h.db.MaterializeNodePoints(h.ps, opt.MatK, nil)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close releases the shard's materialization (which detaches its own pool
// tenant), then the shard engine itself. It keeps going past an error and
// returns them all.
func (h *shardHandle) close() error {
	var matErr error
	if h.mat != nil {
		matErr = h.mat.Close()
	}
	return errors.Join(matErr, h.db.Close())
}

// Close releases the per-shard substrates (materializations, disk-backed
// tenants) and the coordinator's hub index. The Sharded must be quiescent;
// a second Close is a no-op.
func (s *Sharded) Close() error {
	var errs []error
	for _, h := range s.handles {
		if h != nil {
			errs = append(errs, h.close())
		}
	}
	s.handles = nil
	if s.hub != nil {
		errs = append(errs, s.hub.Close())
		s.hub = nil
	}
	return errors.Join(errs...)
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.part.Shards }

// ShardOf returns the shard owning node n.
func (s *Sharded) ShardOf(n NodeID) int {
	return s.part.ShardOf(graph.NodeID(n))
}

// shardOptions carves one shard's bounds out of the parent query's. The
// deadline keeps a slice (a tenth, at most 50 ms) for the merge and the
// verify pass; a parent timeout too small to split propagates unchanged,
// so microscopic deadlines keep failing with the typed upfront rejection
// instead of silently turning unbounded. MaxNodes is split evenly,
// max(B/shards, 1), and zero stays unlimited; the verify pass charges what
// the shards spent against the parent's whole budget. MaxIOReads is split
// the same way only when splitIO is set, i.e. when the shards read through
// pools of their own; shards on the coordinator's pool take it whole, since
// that pool's read counter already charges each of them every shard's reads.
func shardOptions(parent QueryOptions, shards int, splitIO bool) QueryOptions {
	split := func(b int64) int64 {
		if b <= 0 {
			return 0
		}
		return max(b/int64(shards), 1)
	}
	opt := QueryOptions{Budget: Budget{
		MaxNodes:   split(parent.Budget.MaxNodes),
		MaxIOReads: parent.Budget.MaxIOReads,
	}}
	if splitIO {
		opt.Budget.MaxIOReads = split(parent.Budget.MaxIOReads)
	}
	if parent.Timeout > 0 {
		opt.Timeout = parent.Timeout - min(parent.Timeout/10, 50*time.Millisecond)
	}
	return opt
}

// shardQuery derives the per-shard sub-query: same kind, target, depth
// and algorithm preference, under the bounds shardOptions carves.
func (s *Sharded) shardQuery(q Query) Query {
	return Query{
		Kind: q.Kind, Target: q.Target, Route: q.Route, K: q.K,
		Algorithm: q.Algorithm, Strict: q.Strict,
		QueryOptions: shardOptions(q.QueryOptions, s.part.Shards, !s.sharedPool),
	}
}

// RunShard executes shard sh's slice of q on this Sharded's own engines:
// Points (and Sites) resolve to the shard's own sets, and the answer is
// the shard-locally confirmed members among the points the shard owns,
// as global ids. It is what a ShardRunner delegates to for the queries a
// coordinator fans out (a shard has no hub index; its planner picks among
// expansion and eager-M); q's QueryOptions are applied as given (the
// coordinator already derived them). Partial candidates ride along with
// typed execution errors, per the engine contract.
func (s *Sharded) RunShard(ctx context.Context, sh int, q Query) (*ShardResult, error) {
	if sh < 0 || sh >= s.part.Shards {
		return nil, fmt.Errorf("graphrnn: shard %d out of range [0,%d)", sh, s.part.Shards)
	}
	if s.handles == nil {
		return nil, fmt.Errorf("graphrnn: pure coordinator (ShardOptions.Runner set) has no local shard engines")
	}
	if q.Points != nil || q.Sites != nil {
		return nil, fmt.Errorf("graphrnn: sharded queries name no Points/Sites; the Sharded owns its point sets")
	}
	switch q.Kind {
	case KindRNN, KindContinuous:
	case KindBichromatic:
		if s.sites == nil {
			return nil, fmt.Errorf("graphrnn: KindBichromatic needs ShardOptions.Sites")
		}
	default:
		return nil, fmt.Errorf("graphrnn: kind %v is served by the coordinator's global engine, not per shard", q.Kind)
	}
	h := s.handles[sh]
	lq := q
	lq.Points = h.ps
	if q.Kind == KindBichromatic {
		lq.Sites = h.sites
	}
	res, err := h.db.Run(ctx, lq)
	if res == nil {
		return nil, err
	}
	sr := &ShardResult{Stats: res.Stats}
	for _, lp := range res.Points {
		if int(lp) < len(h.owned) && h.owned[lp] {
			sr.Candidates = append(sr.Candidates, h.toGlobal[lp])
		}
	}
	return sr, err
}

// runOneShard dispatches to the runner or the local engines and keeps
// the per-shard serving counters.
func (s *Sharded) runOneShard(ctx context.Context, sh int, q Query) (*ShardResult, error) {
	start := time.Now()
	var sr *ShardResult
	var err error
	if s.runner != nil {
		sr, err = s.runner.RunShard(ctx, sh, q)
	} else {
		sr, err = s.RunShard(ctx, sh, q)
	}
	c := &s.perShard[sh]
	c.queries.Add(1)
	c.latencyNS.Add(time.Since(start).Nanoseconds())
	if err != nil {
		c.errors.Add(1)
		s.shardErrors.Add(1)
	}
	if sr != nil {
		c.candidates.Add(int64(len(sr.Candidates)))
	}
	return sr, err
}

// Run executes one query. A query the coordinator's hub index covers — rnn
// or continuous, no algorithm hint, k <= HubLabelK — and every KindKNN query
// run on the coordinator alone, as DB.Run over the full point set: no
// fan-out, counted under GlobalRuns, Plan.Reason says which. Everything else
// runs by scatter-gather: one sub-query per shard with a derived deadline,
// a merge of the per-shard candidate sets, and an exact verification of
// every candidate against the full point set by expansion on the
// coordinator; Stats carries the shards' work and the verify's. Either way
// the answer equals the unsharded DB.Run answer over the same point set on
// the matching substrate (see Exactness).
// Points and Sites must be nil (the Sharded owns them); an Algorithm hint
// passes through to every shard's planner. q.Budget.MaxNodes bounds the
// whole query: each shard gets an even share of it (see shardOptions), and
// the verify pass stops once the shards' work plus its own exceeds it.
// MaxIOReads is metered per buffer pool: DiskBacked in-process shards read
// through the coordinator's pool, whose read counter holds the fan-out and
// the verify pass to it together. Under a Runner the shards split it
// evenly; a Runner that delegates to a DiskBacked Sharded of the same DB
// still reads through that one pool, so the verify pass's meter sees the
// shards' reads too and the query stays within MaxIOReads. Shards on pools
// of their own — in-process shards without DiskBacked, whose K-NN lists
// sit on each shard's pool, and a Runner that delegates to such shards —
// split it evenly while the verify pass meters only the coordinator's
// pool, so such a query may read up to about twice MaxIOReads in all.
//
// Typed execution errors follow the engine contract: shards cut short
// contribute their partial candidates, the verified merge rides along with
// the first shard's typed error, and a verify pass cut short returns the
// members confirmed so far.
func (s *Sharded) Run(ctx context.Context, q Query) (*Result, error) {
	if q.Points != nil || q.Sites != nil {
		return nil, fmt.Errorf("graphrnn: sharded queries name no Points/Sites; the Sharded owns its point sets")
	}
	byIndex := s.hub != nil && (q.Kind == KindRNN || q.Kind == KindContinuous) &&
		q.Algorithm.kind == algoAuto && q.K <= s.hub.MaxK()
	if q.Kind == KindKNN || byIndex {
		s.globalRuns.Add(1)
		gq := q
		gq.Points = s.ps
		if byIndex {
			gq.Algorithm = HubLabel(s.hub)
		}
		res, err := s.db.Run(ctx, gq)
		if res != nil && byIndex {
			res.Plan.Reason = "the coordinator's hub-label index over the full point set answers by label intersection; no fan-out"
		}
		return res, err
	}
	if q.Kind == KindBichromatic && s.sites == nil {
		return nil, fmt.Errorf("graphrnn: KindBichromatic needs ShardOptions.Sites")
	}
	// The coordinator's own execution context carries the parent
	// deadline and rejects an already-expired one upfront, before any
	// fan-out.
	ec, cancel, err := s.db.newExec(ctx, &q.QueryOptions)
	if err != nil {
		return &Result{Plan: s.plan(q, 0)}, err
	}
	defer cancel()
	s.queries.Add(1)
	s.fanOuts.Add(int64(s.part.Shards))

	sq := s.shardQuery(q)
	results := make([]*ShardResult, s.part.Shards)
	errs := make([]error, s.part.Shards)
	var wg sync.WaitGroup
	for sh := range s.part.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[sh], errs[sh] = s.runOneShard(ctx, sh, sq)
		}()
	}
	wg.Wait()

	var execErr error
	lists := make([][]PointID, 0, s.part.Shards)
	var gathered Stats
	for sh := range s.part.Shards {
		if sr := results[sh]; sr != nil {
			lists = append(lists, sr.Candidates)
			gathered.Add(sr.Stats)
		}
		if err := errs[sh]; err != nil {
			if !IsExecErr(err) {
				return nil, fmt.Errorf("graphrnn: shard %d: %w", sh, err)
			}
			if execErr == nil {
				execErr = fmt.Errorf("graphrnn: shard %d: %w", sh, err)
			}
		}
	}
	cands := mergeCandidates(lists)
	s.candidates.Add(int64(len(cands)))

	res, verr := s.verifyCandidates(ec, q, cands, gathered)
	if res == nil {
		return nil, verr
	}
	res.Plan = s.plan(q, len(cands))
	s.members.Add(int64(len(res.Points)))
	if verr != nil {
		return res, verr
	}
	return res, execErr
}

// plan describes the scatter-gather execution of q.
func (s *Sharded) plan(q Query, candidates int) Plan {
	return Plan{
		Kind:      q.Kind,
		Algorithm: q.Algorithm,
		Reason: fmt.Sprintf("scatter-gather over %d shards; %d candidates verified on the coordinator by expansion",
			s.part.Shards, candidates),
	}
}

// RunBatch fans a slice of queries out over a worker pool, each entry
// executed as if through Run (so each entry that scatters does so to every
// shard).
// Semantics mirror DB.RunBatch: per-entry results in input order,
// FailFast, context-aware dispatch.
func (s *Sharded) RunBatch(ctx context.Context, queries []Query, opt *BatchOptions) *BatchReport {
	return runBatch(ctx, queries, opt, s.Run)
}

// mergeCandidates unions per-shard candidate lists into one ascending,
// duplicate-free list. Inputs need not be sorted or valid — the verify
// pass re-checks every id — so the merge is safe on whatever a Runner
// returns.
func mergeCandidates(lists [][]PointID) []PointID {
	out := slices.Concat(lists...)
	slices.Sort(out)
	return slices.Compact(out)
}

// verifyCandidates confirms each merged candidate against the full point
// set — the cross-shard verify pass that makes scatter-gather answers
// identical to unsharded ones — by the exact per-candidate expansion of the
// brute-force oracle. Ids that name no live point are rejected (a shard or
// a Runner proposed garbage). The Result's Stats start at
// gathered, the shards' work, and ec is polled before every candidate,
// charged with the query's work so far: the sub-expansions poll only every
// exec.CheckStride-th pop and most finish first. Typed execution errors
// return the members verified so far.
func (s *Sharded) verifyCandidates(ec *exec.Ctx, q Query, cands []PointID, gathered Stats) (*Result, error) {
	bs := s.db.searcher.Bound(ec)
	req := core.Request{
		Kind: core.Kind(q.Kind), K: q.K, Points: core.PointSet{Node: s.ps.ns},
		Target: core.NodeLoc(graph.NodeID(q.Target.U)), Route: toNodeIDs(q.Route),
	}
	if q.Kind == KindBichromatic {
		req.Sites.Node = s.sites.ns
	}
	// Points is non-nil even when empty, matching wrapResult's shape on
	// the unsharded surface.
	res := &Result{Points: []PointID{}, Stats: gathered}
	for _, p := range cands {
		if err := ec.Check(res.Stats.NodesExpanded + res.Stats.NodesScanned); err != nil {
			return res, err
		}
		member, st, err := bs.VerifyMember(req, points.PointID(p))
		s.verifyRuns.Add(1)
		res.Stats.Add(st)
		if err != nil {
			if IsExecErr(err) {
				return res, err
			}
			return nil, err
		}
		if member {
			res.Points = append(res.Points, p)
		} else {
			s.verifyRejected.Add(1)
		}
	}
	return res, nil
}

// ShardStats is one shard's static shape and serving counters.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// OwnedNodes is the region size in nodes; OwnedPoints / HaloPoints
	// count the points served (owned, and replicated halo competitors).
	OwnedNodes  int
	OwnedPoints int
	HaloPoints  int
	// Queries / Errors / Candidates count sub-queries dispatched to this
	// shard, their failures, and the candidates they proposed.
	Queries    int64
	Errors     int64
	Candidates int64
	// Latency is the cumulative wall time of this shard's sub-queries.
	Latency time.Duration
}

// ShardedStats is a snapshot of the coordinator's serving counters.
type ShardedStats struct {
	// Shards / HaloDepth / CutEdges describe the partition.
	Shards    int
	HaloDepth int
	CutEdges  int
	// Queries counts scatter-gather queries; GlobalRuns counts queries the
	// coordinator served alone instead (KindKNN, and the rnn / continuous
	// queries its hub index covers); FanOuts counts shard sub-queries
	// issued.
	Queries    int64
	GlobalRuns int64
	FanOuts    int64
	// Candidates counts merged candidates; VerifyRuns / VerifyRejected
	// count coordinator verifications and the candidates they rejected
	// (halo misses — a shard proposed a point the full competitor set
	// disqualifies); Members counts confirmed members returned.
	Candidates     int64
	VerifyRuns     int64
	VerifyRejected int64
	Members        int64
	// ShardErrors counts failed shard sub-queries.
	ShardErrors int64
	// PerShard holds one entry per shard.
	PerShard []ShardStats
}

// Stats snapshots the serving counters. Safe under live traffic.
func (s *Sharded) Stats() ShardedStats {
	st := ShardedStats{
		Shards:         s.part.Shards,
		HaloDepth:      s.part.HaloDepth,
		CutEdges:       s.part.CutEdges,
		Queries:        s.queries.Load(),
		GlobalRuns:     s.globalRuns.Load(),
		FanOuts:        s.fanOuts.Load(),
		Candidates:     s.candidates.Load(),
		VerifyRuns:     s.verifyRuns.Load(),
		VerifyRejected: s.verifyRejected.Load(),
		Members:        s.members.Load(),
		ShardErrors:    s.shardErrors.Load(),
		PerShard:       make([]ShardStats, s.part.Shards),
	}
	for sh := range s.part.Shards {
		c := &s.perShard[sh]
		st.PerShard[sh] = ShardStats{
			Shard:       sh,
			OwnedNodes:  s.part.Sizes[sh],
			OwnedPoints: s.ownedPoints[sh],
			HaloPoints:  s.haloPoints[sh],
			Queries:     c.queries.Load(),
			Errors:      c.errors.Load(),
			Candidates:  c.candidates.Load(),
			Latency:     time.Duration(c.latencyNS.Load()),
		}
	}
	return st
}
