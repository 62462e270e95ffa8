package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// plainAccess hides a DiskStore's type from NewSearcher, so a Searcher
// over it reads every list through the pool and keeps none.
type plainAccess struct{ graph.Access }

func (a plainAccess) In() graph.Access { return a }

// TestSessionQueriesReadLikeThePool: a query that reads its store through
// a session ends with the answer, the Stats and the buffer counters of the
// same query reading every list through the pool — unbounded, and under
// I/O budgets, whose polls must see the count the plain reads leave, so
// the budget trips at the same step with the same partial result. The
// store is packed by ClusteredOrder, the one layout NewSearcher reads
// through a session; its pages are large enough that no list of these
// networks stops the packing.
func TestSessionQueriesReadLikeThePool(t *testing.T) {
	const pageSize = 1024
	rng := rand.New(rand.NewSource(83))
	for it := range 20 {
		net := randTestNet(t, rng)
		order := storage.ClusteredOrder(net.g, pageSize)
		if order == nil {
			t.Fatalf("net %d: ClusteredOrder kept BFS pages", it)
		}
		bfs, err := storage.BuildDiskStore(net.g, storage.NewMemFile(pageSize), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if NewSearcher(bfs).disk != nil {
			t.Fatalf("net %d: a searcher over BFS pages reads through a session", it)
		}
		pts := net.ps.Points()
		qp := pts[rng.Intn(len(pts))]
		qnode, _ := net.ps.NodeOf(qp)
		view := points.ExcludeNode(net.ps, qp)
		k := 1 + rng.Intn(3)
		for _, algo := range []Algo{AlgoEager, AlgoLazy, AlgoLazyEP, AlgoBrute} {
			for _, budget := range []int64{0, 1, 2, 4, 8} {
				type outcome struct {
					res *Result
					err string
					io  storage.Stats
				}
				var got [2]outcome
				for i := range got {
					ds, err := storage.BuildDiskStore(net.g, storage.NewMemFile(pageSize), 2, order)
					if err != nil {
						t.Fatal(err)
					}
					ds.Clustered = true
					var acc graph.Access = ds
					if i == 1 {
						acc = plainAccess{ds}
					}
					s := NewSearcher(acc)
					if (s.disk != nil) != (i == 0) {
						t.Fatalf("net %d: a searcher over %T reads through a session: %v", it, acc, s.disk != nil)
					}
					if budget > 0 {
						reads := func() int64 { return ds.Buffer().Stats().Reads }
						s = s.Bound(exec.New(context.Background(), exec.Budget{MaxIOReads: budget}, reads))
					}
					res, err := runRNN(s, algo, view, nil, qnode, k)
					got[i] = outcome{res: res, io: ds.Buffer().Stats()}
					if err != nil {
						got[i].err = err.Error()
					}
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("net %d, algo %d, k %d, I/O budget %d: through a session %+v, %q, %+v; plain %+v, %q, %+v",
						it, algo, k, budget, got[0].res, got[0].err, got[0].io, got[1].res, got[1].err, got[1].io)
				}
			}
		}
	}
}
