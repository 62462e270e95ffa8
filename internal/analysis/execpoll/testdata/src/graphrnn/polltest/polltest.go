// Package polltest is the execpoll golden fixture: loops that expand nodes
// or read pages with and without polling the exec context, in functions
// that can poll (an *exec.Ctx in scope) and in functions that cannot.
package polltest

import (
	"sync"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

type searcher struct {
	ec *exec.Ctx
	g  *graph.Store
}

func (s *searcher) checkExec() error { return s.ec.Check(1) }

// expandUnpolled is the bug shape: a frontier expansion with no poll, in a
// function handed the context it should have polled.
func expandUnpolled(ec *exec.Ctx, g *graph.Store, frontier []uint32) int {
	total := 0
	for _, n := range frontier { // want `without polling the exec context`
		adj, err := g.Adjacency(n)
		if err != nil {
			return total
		}
		total += len(adj)
	}
	return total
}

// expandUnpolled on the searcher: the same loop where the context is a
// field of the receiver (the Searcher.ec shape).
func (s *searcher) expandUnpolled(frontier []uint32) int {
	total := 0
	for _, n := range frontier { // want `without polling the exec context`
		adj, _ := s.g.Adjacency(n)
		total += len(adj)
	}
	return total
}

// expandNoCtx is the same loop where no poll can be written: no parameter,
// local or receiver field is an *exec.Ctx, so the obligation stays with the
// callers, whose loops trigger on the primitive this one wraps.
func expandNoCtx(g *graph.Store, frontier []uint32) int {
	total := 0
	for _, n := range frontier {
		adj, _ := g.Adjacency(n)
		total += len(adj)
	}
	return total
}

// expandLocalCtx makes its own context and then forgets to poll it.
func expandLocalCtx(g *graph.Store, frontier []uint32) int {
	ec := exec.New()
	_ = ec
	total := 0
	for _, n := range frontier { // want `without polling the exec context`
		adj, _ := g.Adjacency(n)
		total += len(adj)
	}
	return total
}

// expandPolled polls the context directly each iteration.
func expandPolled(ec *exec.Ctx, g *graph.Store, frontier []uint32) (int, error) {
	total := 0
	for _, n := range frontier {
		if err := ec.Check(1); err != nil {
			return total, err
		}
		adj, _ := g.Adjacency(n)
		total += len(adj)
	}
	return total, nil
}

// expandWrapped polls through the searcher's checkExec wrapper.
func (s *searcher) expandWrapped(frontier []uint32) (int, error) {
	total := 0
	for _, n := range frontier {
		if err := s.checkExec(); err != nil {
			return total, err
		}
		adj, _ := s.g.Adjacency(n)
		total += len(adj)
	}
	return total, nil
}

// pageScanUnpolled reads pages in a bare for loop: flagged too.
func pageScanUnpolled(ec *exec.Ctx, p *storage.Pool, n uint32) int {
	total := 0
	for id := uint32(0); id < n; id++ { // want `without polling the exec context`
		pg, _ := p.Get(id)
		total += len(pg)
	}
	return total
}

// nestedInnerPoll polls only in the inner loop; the inner poll runs at
// least once per outer iteration, so both loops are covered.
func nestedInnerPoll(ec *exec.Ctx, g *graph.Store, rounds int, frontier []uint32) error {
	for r := 0; r < rounds; r++ {
		for _, n := range frontier {
			if err := ec.Check(1); err != nil {
				return err
			}
			g.Adjacency(n)
		}
	}
	return nil
}

// closureIsolated: the loop itself only builds closures; the closure's own
// body is judged separately and has no loop, so nothing is flagged.
func closureIsolated(g *graph.Store, frontier []uint32) []func() int {
	var fns []func() int
	for _, n := range frontier {
		n := n
		fns = append(fns, func() int {
			adj, _ := g.Adjacency(n)
			return len(adj)
		})
	}
	return fns
}

// closureLoopUnpolled: a loop inside a closure is judged on its own and
// still needs a poll — the closure sees its definer's context.
func closureLoopUnpolled(ec *exec.Ctx, g *graph.Store, frontier []uint32) func() int {
	return func() int {
		total := 0
		for _, n := range frontier { // want `without polling the exec context`
			adj, _ := g.Adjacency(n)
			total += len(adj)
		}
		return total
	}
}

// twoAnchors is a deliberate exception: the searcher could poll here and
// chooses not to, annotated in place.
func (s *searcher) twoAnchors(a, b uint32) int {
	total := 0
	//lint:ignore vetrnn/execpoll at most two iterations; the query loop driving it polls
	for _, n := range [2]uint32{a, b} {
		adj, _ := s.g.Adjacency(n)
		total += len(adj)
	}
	return total
}

// plainLoop touches none of the paging primitives: not subject to the rule.
func plainLoop(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// batchedBuildPolled mirrors the parallel hub-label build: worker
// goroutine closures drain a jobs channel, and each drain loop polls the
// shared exec context (Check is read-only, so one Ctx serves every
// worker).
func batchedBuildPolled(ec *exec.Ctx, g *graph.Store, batch []uint32) {
	jobs := make(chan uint32, len(batch))
	for _, h := range batch {
		jobs <- h
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range jobs {
				if err := ec.Check(1); err != nil {
					return
				}
				g.Adjacency(h)
			}
		}()
	}
	wg.Wait()
}

// batchedBuildUnpolled is the same shape with the poll missing: the drain
// loop lives in a goroutine closure, but it expands adjacency like any
// other loop and is flagged the same way.
func batchedBuildUnpolled(ec *exec.Ctx, g *graph.Store, batch []uint32) {
	jobs := make(chan uint32, len(batch))
	for _, h := range batch {
		jobs <- h
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range jobs { // want `without polling the exec context`
				g.Adjacency(h)
			}
		}()
	}
	wg.Wait()
}
