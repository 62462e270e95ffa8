package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graphrnn/internal/core"
	"graphrnn/internal/exec"
	"graphrnn/internal/gen"
	"graphrnn/internal/points"
)

// Budgeted measures degradation under per-query work budgets — the engine
// layer's MaxNodes cap — on the road-like restricted workload: each row
// halves the node budget, each cell reports the paper's cost model plus
// the average members confirmed before the budget tripped (the Results
// column; the unbounded row is the recall baseline). This is the
// experiment behind admission control: it shows how much answer a deadline
// -bounded deployment still gets when it stops a sweep early.
func Budgeted(s Scale) (*Table, error) {
	n := s.pick(20000, 175000)
	budgets := []int64{0, 50000, 10000, 2000, 500} // 0 = unbounded
	algos := EagerLazy
	t := &Table{
		ID:      "Budget",
		Title:   fmt.Sprintf("budgeted queries, road-like restricted |V|=%d, D=0.01, k=2 (Results = avg members confirmed before the budget tripped)", n),
		XLabel:  "max nodes/query",
		Columns: algos,
	}
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: s.seed(), Nodes: n})
	if err != nil {
		return nil, err
	}
	e, err := newEnv(g, s.bufferPages())
	if err != nil {
		return nil, err
	}
	defer e.close()
	rng := rand.New(rand.NewSource(s.seed() + 41))
	if err := e.withNodePoints(rng, max(2, int(0.01*float64(g.NumNodes())))); err != nil {
		return nil, err
	}
	queries := gen.SampleQueries(rng, e.nodePts.Points(), s.queries())

	for _, budget := range budgets {
		row := make([]Measure, 0, len(algos))
		for _, a := range algos {
			m, err := e.budgetedRow(queries, 2, a, budget)
			if err != nil {
				return nil, err
			}
			row = append(row, m)
		}
		label := "inf"
		if budget > 0 {
			label = fmt.Sprintf("%d", budget)
		}
		t.Xs = append(t.Xs, label)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// budgetedRow runs the workload under one node budget, tolerating (and
// measuring) queries abandoned with ErrBudgetExceeded: their partial
// results count toward the averages, exactly what a budget-bounded server
// would return to its clients.
func (e *env) budgetedRow(queries []points.PointID, k int, a Algo, budget int64) (Measure, error) {
	if err := e.coldStart(); err != nil {
		return Measure{}, err
	}
	var m Measure
	for _, qp := range queries {
		qnode, ok := e.nodePts.NodeOf(qp)
		if !ok {
			continue // not in this environment's point set
		}
		view := points.ExcludeNode(e.nodePts, qp)
		var ec *exec.Ctx
		if budget > 0 {
			ec = exec.New(context.Background(), exec.Budget{MaxNodes: budget}, nil)
		}
		s := e.searcher.Bound(ec)
		ioBefore := e.io()
		t0 := time.Now()
		res, err := e.expand(s, a, core.Request{K: k, Points: core.PointSet{Node: view}, Target: core.NodeLoc(qnode)})
		if err != nil && !exec.IsExecErr(err) {
			return Measure{}, err
		}
		m.CPU += time.Since(t0).Seconds()
		m.IO += float64(e.io() - ioBefore)
		if res != nil {
			m.Results += float64(len(res.Points))
		}
	}
	n := float64(len(queries))
	m.CPU /= n
	m.IO /= n
	m.Results /= n
	return m, nil
}
