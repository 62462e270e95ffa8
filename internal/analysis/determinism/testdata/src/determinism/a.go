// Single-package determinism scenarios: map ranges with and without the
// collect-then-sort idiom, wall-clock taint into returns and stores,
// global vs seeded math/rand, select shapes, sync.Map.Range, same-package
// transitive reach.
package determinism

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// mergeCounts is the batched-merge shape: a map consumed in sorted key
// order is deterministic.
//
// vetrnn:deterministic
func mergeCounts(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k)
	}
	return out
}

// sumUnsorted consumes map order directly.
//
// vetrnn:deterministic
func sumUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want `ranges over a map in nondeterministic key order`
		out = append(out, k)
	}
	return out
}

// unannotated is free to iterate however it likes.
func unannotated(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// --- wall-clock taint --------------------------------------------------------

// stamp returns the clock: the classic nondeterministic result.
//
// vetrnn:deterministic
func stamp() int64 {
	now := time.Now()
	return now.UnixNano() // want `returns a wall-clock-derived value`
}

type stats struct{ wall time.Duration }

// record stores a duration into shared state.
//
// vetrnn:deterministic
func record(st *stats) {
	start := time.Now()
	st.wall = time.Since(start) // want `stores a wall-clock-derived value`
}

// logged only hands the duration to a call — logging wall time is fine.
//
// vetrnn:deterministic
func logged(logf func(time.Duration)) int {
	start := time.Now()
	d := time.Since(start)
	logf(d)
	return 42
}

// clockUnannotated may consume time freely.
func clockUnannotated() int64 {
	return time.Now().UnixNano()
}

// --- math/rand ---------------------------------------------------------------

// globalRand consumes the shared stream.
//
// vetrnn:deterministic
func globalRand(n int) int {
	return rand.Intn(n) // want `consumes the global math/rand stream`
}

// seededRand derives everything from an explicit seed: deterministic.
//
// vetrnn:deterministic
func seededRand(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// --- scheduler choice --------------------------------------------------------

// racySelect lets the scheduler pick among ready channels.
//
// vetrnn:deterministic
func racySelect(a, b chan int) int {
	select { // want `selects among 2 comm clauses`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// pollSelect is the non-blocking single-channel shape: one comm clause.
//
// vetrnn:deterministic
func pollSelect(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

// syncMapRange iterates a sync.Map.
//
// vetrnn:deterministic
func syncMapRange(m *sync.Map) int {
	n := 0
	m.Range(func(k, v any) bool { // want `ranges over a sync\.Map`
		n++
		return true
	})
	return n
}

// --- transitive reach within the package -------------------------------------

// tally is not annotated itself, but root reaches it.
func tally(m map[string]int) int {
	n := 0
	for _, v := range m { // want `ranges over a map in nondeterministic key order.*reached via tally`
		n += v
	}
	return n
}

// root delegates to tally; the contract travels with the call.
//
// vetrnn:deterministic
func root(m map[string]int) int {
	return tally(m)
}
