package core

import (
	"math"

	"graphrnn/internal/points"
)

// brute answers a query by running an unbounded verification expansion from
// every candidate: p is a member iff the target is met before k competitors
// strictly closer to p. It visits all data points — exactly the naive
// strategy Section 3.1 argues against. It shares verify with eager and lazy,
// so it is one more substrate under test, not the reference: the tests hold
// it, like the others, to internal/oracle.
func (s *Searcher) brute(cands, sites PointSet, mono bool, tgt target, k int) (*Result, error) {
	var st Stats
	var results []points.PointID
	for _, p := range cands.ids() {
		// One candidate's verification is one expansion step of the
		// brute-force strategy.
		if err := s.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		member, err := s.verifyMember(&st, cands, sites, mono, p, tgt, k)
		if err != nil {
			return execResult(results, st, err)
		}
		if member {
			results = s.confirm(results, p)
		}
	}
	return finishResult(results, st), nil
}

// verifyMember is brute's per-candidate expansion; a deleted p is not a
// member.
func (s *Searcher) verifyMember(st *Stats, cands, sites PointSet, mono bool, p points.PointID, tgt target, k int) (bool, error) {
	loc, ok := cands.loc(p)
	if !ok {
		return false, nil
	}
	self := points.NoPoint
	if mono {
		self = p
	}
	return s.verify(st, sites, self, loc, tgt, k, math.Inf(1), nil)
}
