package oracle

import (
	"math"
	"slices"
)

// Probe is one query of an exhaustive check and the oracle's answer to it.
type Probe struct {
	K      int
	At     Loc   // the target, unless Route is set
	Route  int   // the index of the route the continuous kind follows, or -1
	Hidden int   // the candidate hidden at At, or -1
	Want   []int // the members, as ascending candidate indexes
}

// Probes calls f for every k of ks at every node of the graph and, with
// grid > 0, at one position inside every edge, a multiple of grid: pass the
// graph's quantum, the grid on which the library resolves every edge offset,
// so the position asked is the position answered. Unless the competitors are
// sites it then calls f at every candidate's own location with that
// candidate hidden, and along every route. A candidate at the query is never
// strictly closer to another than the query is, so hiding it drops it from
// the answer and changes nothing else. The first error f returns stops the
// probes and is returned.
func (o *Oracle) Probes(ks []int, grid float64, routes [][]int, f func(Probe) error) error {
	targets := make([]Loc, len(o.out))
	for n := range targets {
		targets[n] = Loc{U: n, V: n}
	}
	for _, arcs := range o.out {
		for _, a := range arcs {
			if grid > 0 && a.U < a.V {
				pos := math.Round(a.W*float64(len(targets)%3+1)/4/grid) * grid
				targets = append(targets, Loc{U: a.U, V: a.V, Pos: pos})
			}
		}
	}
	for _, k := range ks {
		for _, q := range targets {
			if err := f(Probe{K: k, At: q, Route: -1, Hidden: -1, Want: o.Members(k, q)}); err != nil {
				return err
			}
		}
		if o.bi {
			continue
		}
		for i, p := range o.cands {
			want := slices.DeleteFunc(o.Members(k, p), func(j int) bool { return j == i })
			if err := f(Probe{K: k, At: p, Route: -1, Hidden: i, Want: want}); err != nil {
				return err
			}
		}
		for r, route := range routes {
			qs := make([]Loc, len(route))
			for i, n := range route {
				qs[i] = Loc{U: n, V: n}
			}
			if err := f(Probe{K: k, Route: r, Hidden: -1, Want: o.Members(k, qs...)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Depths returns 1..maxK and then more.
func Depths(maxK int, more ...int) []int {
	var ks []int
	for k := 1; k <= maxK; k++ {
		ks = append(ks, k)
	}
	return append(ks, more...)
}
