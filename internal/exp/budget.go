package exp

import (
	"fmt"

	"graphrnn"
)

// Budgeted measures degradation under per-query work budgets — the engine
// layer's MaxNodes cap — on the road-like restricted workload: each row
// halves the node budget, each cell reports the paper's cost model plus
// the average members confirmed before the budget tripped (the Results
// column; the unbounded row is the recall baseline). Queries abandoned with
// ErrBudgetExceeded count toward the averages with their partial results,
// exactly what a budget-bounded server would return to its clients. This is
// the experiment behind admission control: it shows how much answer a
// deadline-bounded deployment still gets when it stops a sweep early.
func Budgeted(s Scale) (*Table, error) {
	n := s.pick(20000, 175000)
	t := &Table{
		ID:      "Budget",
		Title:   fmt.Sprintf("budgeted queries, road-like restricted |V|=%d, D=0.01, k=2 (Results = avg members confirmed before the budget tripped)", n),
		XLabel:  "max nodes/query",
		Columns: EagerLazy,
	}
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	return t, open(g, s.restricted(s.seed()+41, 0.01, 0), func(w *world) error {
		queries := w.sample(s.seed()+42, s.queries())
		for _, budget := range []int64{0, 50000, 10000, 2000, 500} { // 0 = unbounded
			x := "inf"
			if budget > 0 {
				x = fmt.Sprintf("%d", budget)
			}
			err := w.measure(t, x, len(queries), false, func(a Algo, i int) (*graphrnn.Result, error) {
				return w.rnn(a, queries[i], 2, graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: budget}})
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}
