package core

import (
	"errors"
	"fmt"
)

// ErrUndirectedOnly reports a request that is only correct when network
// distances are symmetric, issued against a graph with one-way arcs: the
// lazy algorithm (its verifications prune the main walk with d(p→m) where
// Lemma 1 needs d(m→p)), materialized K-NN lists (the border-node list
// repair of a deletion walks the same way in and out), and every
// edge-resident point set or location (a position "on edge (u,v)" assumes
// the edge can be left through either endpoint).
var ErrUndirectedOnly = errors.New("needs an undirected graph (symmetric distances)")

// symmetricOnly rejects what on a network with one-way arcs.
func (s *Searcher) symmetricOnly(what string) error {
	if s.in == s.g {
		return nil
	}
	return fmt.Errorf("core: %s: %w", what, ErrUndirectedOnly)
}

// ErrNoEdge reports a location or a data point on an edge the graph does
// not contain.
var ErrNoEdge = errors.New("edge not in graph")

func errKTooSmall(k int) error {
	return fmt.Errorf("core: k must be >= 1, got %d", k)
}
