package exp

import (
	"context"
	"errors"
	"fmt"

	"graphrnn"
)

// shardCols are the two columns of the sharding experiment: the
// scatter-gather coordinator and the unsharded engine it must match.
var shardCols = []Algo{"sharded", "global"}

// ShardedServing measures the scatter-gather coordinator against the
// unsharded engine, beyond the paper: one road-like restricted workload
// (D=0.01, k=2) re-queried at increasing shard counts, on the class sharding
// exists for: no hub index, so every shard answers by expansion among its
// region's points and the coordinator re-verifies every merged candidate by
// expansion. The sharded column pays fan-out plus verification on top of
// smaller per-shard searches; the row label reports the measured fan-out
// and the partition's cut size. Like every row of the harness, one where
// the merged answer differs from the global engine's fails instead of
// reporting numbers.
func ShardedServing(s Scale) (*Table, error) {
	n := s.pick(20000, 175000)
	t := &Table{
		ID:      "Shard",
		Title:   fmt.Sprintf("sharded scatter-gather vs unsharded engine, road-like restricted |V|=%d, D=0.01, k=2", n),
		XLabel:  "shards",
		Columns: shardCols,
	}
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	return t, open(g, s.restricted(s.seed()+51, 0.01, 0), func(w *world) error {
		queries := w.sample(s.seed()+52, s.queries())
		for _, c := range []int{1, 2, 4, 8} {
			if err := w.shardRow(t, c, s.seed(), queries); err != nil {
				return err
			}
		}
		return nil
	})
}

// shardRow appends the row of one shard count to t.
func (w *world) shardRow(t *Table, shards int, seed int64, queries []graphrnn.PointID) (err error) {
	sh, err := w.db.Shard(w.node, &graphrnn.ShardOptions{Shards: shards, Seed: seed})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sh.Close()) }()
	err = w.measure(t, "", len(queries), false, func(c Algo, i int) (*graphrnn.Result, error) {
		qnode, ok := w.node.NodeOf(queries[i])
		if !ok {
			return nil, fmt.Errorf("exp: query point %d is not in the set", queries[i])
		}
		q := graphrnn.Query{Target: graphrnn.NodeLocation(qnode), K: 2}
		if c == "sharded" {
			return sh.Run(context.Background(), q)
		}
		q.Points = w.node
		return w.db.Run(context.Background(), q)
	})
	if err != nil {
		return err
	}
	// The fan-out is only known once the row is measured.
	st := sh.Stats()
	t.Xs[len(t.Xs)-1] = fmt.Sprintf("%d (fan %.1f, cut %d)", shards, float64(st.FanOuts)/float64(st.Queries), st.CutEdges)
	return nil
}
