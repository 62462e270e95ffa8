package exp

import (
	"fmt"

	"graphrnn"
)

// Planner measures the unified query API's auto-selection against the
// constant eager baseline, beyond the paper: one road-like restricted
// workload queried at three attachment states — no substrate (expansion
// heuristic), an attached materialization (eager-M), an attached hub-label
// index. The AUTO column should track the best substrate available at each
// state with no change to the issued Query; the row label names what the
// planner resolved to.
func Planner(s Scale) (*Table, error) {
	n := s.pick(20000, 175000)
	t := &Table{
		ID:      "Planner",
		Title:   fmt.Sprintf("planner auto-selection vs eager, road-like restricted |V|=%d, D=0.01, k=2", n),
		XLabel:  "attached substrate",
		Columns: []Algo{AlgoAuto, AlgoEager},
	}
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	return t, open(g, s.restricted(s.seed()+48, 0.01, 0), func(w *world) error {
		queries := w.sample(s.seed()+47, s.queries())
		states := []struct {
			x      string
			attach func() error
		}{
			{"none", func() error { return nil }},
			{"mat", func() error { return w.materialize(2) }},
			{"hub", func() error { return w.hubLabel(2) }},
		}
		for _, st := range states {
			if err := st.attach(); err != nil {
				return err
			}
			plan, err := w.db.Plan(graphrnn.Query{K: 2, Points: w.node})
			if err != nil {
				return err
			}
			if err := w.rnnRow(t, fmt.Sprintf("%s (auto>%s)", st.x, plan.Algorithm), queries, 2, false); err != nil {
				return err
			}
		}
		return nil
	})
}
