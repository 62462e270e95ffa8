package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// TestDiskAndMemoryStoresAgree runs every algorithm against the same
// network served once from memory and once from the paged disk store: the
// answers must be identical, proving the storage stack is semantically
// transparent (weights survive bit-exactly, fragment chains reassemble,
// buffer eviction loses nothing).
func TestDiskAndMemoryStoresAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for it := 0; it < 30; it++ {
		net := randTestNet(t, rng)
		mem := NewSearcher(net.g)
		// Tiny pages and a tiny buffer maximize fragmentation/eviction.
		ds, err := storage.BuildDiskStore(net.g, storage.NewMemFile(256), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		disk := NewSearcher(ds)
		k := 1 + rng.Intn(3)
		pts := net.ps.Points()
		qp := pts[rng.Intn(len(pts))]
		qnode, _ := net.ps.NodeOf(qp)
		view := points.ExcludeNode(net.ps, qp)

		memMat := buildMat(t, mem, net.ps, k)
		diskMat, err := matBuild(disk, PointSet{Node: net.ps}, k, newMemMatFile(), 2, nil)
		if err != nil {
			t.Fatal(err)
		}

		type run func(s *Searcher, mat *Materialized) (*Result, error)
		for name, fn := range map[string]run{
			"eager":  func(s *Searcher, _ *Materialized) (*Result, error) { return runRNN(s, AlgoEager, view, nil, qnode, k) },
			"lazy":   func(s *Searcher, _ *Materialized) (*Result, error) { return runRNN(s, AlgoLazy, view, nil, qnode, k) },
			"lazyEP": func(s *Searcher, _ *Materialized) (*Result, error) { return runRNN(s, AlgoLazyEP, view, nil, qnode, k) },
			"eagerM": func(s *Searcher, m *Materialized) (*Result, error) { return runRNN(s, AlgoEagerM, view, m, qnode, k) },
			"brute":  func(s *Searcher, _ *Materialized) (*Result, error) { return runRNN(s, AlgoBrute, view, nil, qnode, k) },
		} {
			a, err := fn(mem, memMat)
			if err != nil {
				t.Fatalf("%s (mem): %v", name, err)
			}
			b, err := fn(disk, diskMat)
			if err != nil {
				t.Fatalf("%s (disk): %v", name, err)
			}
			if !samePoints(a, b) {
				t.Fatalf("iter %d %s: disk=%s mem=%s", it, name, describe(b), describe(a))
			}
		}
		if ds.Buffer().Stats().Reads == 0 {
			t.Fatal("disk store served queries without any physical read")
		}
	}
}

// flakyFile fails every read after a budget is exhausted.
type flakyFile struct {
	storage.PagedFile
	budget int
}

func (f *flakyFile) Read(id storage.PageID, dst []byte) error {
	if f.budget <= 0 {
		return fmt.Errorf("injected I/O failure on page %d", id)
	}
	f.budget--
	return f.PagedFile.Read(id, dst)
}

// TestQueryIOErrorsPropagate injects storage failures mid-query and checks
// every algorithm surfaces the error instead of returning a wrong answer.
func TestQueryIOErrorsPropagate(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	net := randTestNet(t, rng)
	// An unbuffered store over a file whose reads the test rations.
	flaky := &flakyFile{PagedFile: storage.NewMemFile(256)}
	fds, err := storage.BuildDiskStore(net.g, flaky, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := net.ps.Points()
	qnode, _ := net.ps.NodeOf(pts[0])
	view := points.ExcludeNode(net.ps, pts[0])

	for budget := 0; budget < 8; budget++ {
		flaky.budget = budget
		s := NewSearcher(fds)
		for name, fn := range map[string]func() (*Result, error){
			"eager":  func() (*Result, error) { return runRNN(s, AlgoEager, view, nil, qnode, 1) },
			"lazy":   func() (*Result, error) { return runRNN(s, AlgoLazy, view, nil, qnode, 1) },
			"lazyEP": func() (*Result, error) { return runRNN(s, AlgoLazyEP, view, nil, qnode, 1) },
			"brute":  func() (*Result, error) { return runRNN(s, AlgoBrute, view, nil, qnode, 1) },
		} {
			_, err := fn()
			if err == nil {
				t.Fatalf("budget %d: %s swallowed the injected I/O failure", budget, name)
			}
		}
	}
}

// TestScratchEpochWraparound forces stamp reuse across many queries on one
// Searcher, which would corrupt results if epochs leaked between searches.
func TestScratchEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	net := randTestNet(t, rng)
	s := NewSearcher(net.g)
	pts := net.ps.Points()
	var first *Result
	for i := 0; i < 300; i++ {
		qp := pts[i%len(pts)]
		qnode, _ := net.ps.NodeOf(qp)
		view := points.ExcludeNode(net.ps, qp)
		r, err := runRNN(s, AlgoEager, view, nil, qnode, 2)
		if err != nil {
			t.Fatal(err)
		}
		if i%len(pts) == 0 {
			if first == nil {
				first = r
			} else if !samePoints(first, r) {
				t.Fatalf("iteration %d: answer drifted from %s to %s", i, describe(first), describe(r))
			}
		}
	}
}
