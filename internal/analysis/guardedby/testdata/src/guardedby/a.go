// Single-package guardedby scenarios: plain mutexes, RWMutex read/write
// modes (including the publish-under-the-read-lock shape), guard paths
// through pointer fields, aliases, vetrnn:holds preconditions,
// construction exemption, closure isolation, and annotation validation.
package guardedby

import "sync"

type counters struct {
	mu        sync.Mutex
	decisions map[string]int // vetrnn:guardedby mu
	fallbacks int64          // vetrnn:guardedby mu
}

func (c *counters) record(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decisions[k]++
	c.fallbacks++
}

func (c *counters) recordUnlocked(k string) {
	c.decisions[k]++ // want `access to c\.decisions is guarded by c\.mu, which is not held`
}

func (c *counters) snapshotUnlocked() int64 {
	return c.fallbacks // want `access to c\.fallbacks is guarded by c\.mu, which is not held`
}

func (c *counters) lateAccess(k string) {
	c.mu.Lock()
	c.decisions[k]++
	c.mu.Unlock()
	c.fallbacks++ // want `access to c\.fallbacks is guarded by c\.mu, which is not held`
}

// --- RWMutex modes: the PR 5 bug class --------------------------------------

type server struct {
	mu    sync.RWMutex
	index *int // vetrnn:guardedby mu
	count int  // vetrnn:guardedby mu
}

func (s *server) query() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.index == nil {
		return 0
	}
	return *s.index
}

func (s *server) publishUnderReadLock(v *int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.index = v // want `write to s\.index under RLock of s\.mu`
}

func (s *server) rebuild(v *int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index = v
	s.count++
}

// --- guard paths through pointers, and aliases ------------------------------

type pool struct {
	mu      sync.Mutex
	nframes int // vetrnn:guardedby mu
}

type tenant struct {
	pool   *pool
	frames int // vetrnn:guardedby pool.mu
}

func grow(t *tenant) {
	t.pool.mu.Lock()
	defer t.pool.mu.Unlock()
	t.frames++
}

func growViaAlias(t *tenant) {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	t.frames++
	p.nframes++
}

func growUnlocked(t *tenant) {
	t.frames++ // want `access to t\.frames is guarded by t\.pool\.mu, which is not held`
}

// --- vetrnn:holds preconditions ---------------------------------------------

// growLocked grows a tenant.
// vetrnn:holds t.pool.mu
func growLocked(t *tenant) {
	t.frames++
}

// peek reads under a caller-held read lock; writing is still illegal.
// vetrnn:holds s.mu read
func peek(s *server) int {
	if s.index != nil {
		return *s.index
	}
	s.count++ // want `write to s\.count under RLock of s\.mu`
	return 0
}

// internals is serialized entirely by the caller.
// vetrnn:holds *
func internals(t *tenant, p *pool) {
	t.frames++
	p.nframes++
}

// evictWhile shows the closure-inheritance rule: a synchronous predicate
// literal runs on the definer's stack and inherits its holds contract, but
// a literal handed to go (or defer) escapes the lock scope and does not.
// vetrnn:holds t.pool.mu
func evictWhile(t *tenant, more func() bool) {
	pred := func() bool { return t.frames > 0 }
	for pred() && more() {
		t.frames--
	}
	go func() {
		t.frames++ // want `access to t\.frames is guarded by t\.pool\.mu, which is not held`
	}()
}

// --- construction exemption -------------------------------------------------

func build(p *pool) *tenant {
	t := &tenant{pool: p}
	t.frames = 1
	var q pool
	q.nframes = 1
	n := new(pool)
	n.nframes = 2
	return t
}

// --- closures run on their own schedule -------------------------------------

func spawn(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	go func() {
		s.count++ // want `access to s\.count is guarded by s\.mu, which is not held`
	}()
}

// --- dataflow: branches and merges ------------------------------------------

// earlyReturn is the lexical-replay false positive the dataflow port
// removes: the error path unlocks and returns, and the fall-through path
// still holds the lock.
func earlyReturn(c *counters, bad bool) {
	c.mu.Lock()
	if bad {
		c.mu.Unlock()
		return
	}
	c.fallbacks++
	c.mu.Unlock()
}

// conditionalLock is the matching false negative: a lock taken on only
// one arm of a branch is not held after the merge.
func conditionalLock(c *counters, maybe bool) {
	if maybe {
		c.mu.Lock()
	}
	c.fallbacks++ // want `access to c\.fallbacks is guarded by c\.mu, which is not held`
	if maybe {
		c.mu.Unlock()
	}
}

// bothArmsLock holds after the merge because every path locked.
func bothArmsLock(c *counters, which bool) {
	if which {
		c.mu.Lock()
	} else {
		c.mu.Lock()
	}
	c.fallbacks++
	c.mu.Unlock()
}

// downgradeJoin: one path holds the write half, the other the read half;
// the merge keeps only the read half, so a write there is the RLock
// publish diagnostic.
func downgradeJoin(s *server, heavy bool) {
	if heavy {
		s.mu.Lock()
	} else {
		s.mu.RLock()
	}
	s.count++ // want `write to s\.count under RLock of s\.mu`
	_ = s.count
}

// loopRelock: the lock is released and retaken inside the body, so the
// backedge join still holds it at the loop head and the access is clean.
func loopRelock(c *counters, keys []string) {
	c.mu.Lock()
	for _, k := range keys {
		c.decisions[k]++
		c.mu.Unlock()
		c.mu.Lock()
	}
	c.mu.Unlock()
}

// loopDrop: the body unlocks without retaking, so the second iteration
// does not hold the lock — the head join drops it.
func loopDrop(c *counters, keys []string) {
	c.mu.Lock()
	for _, k := range keys {
		c.decisions[k]++ // want `access to c\.decisions is guarded by c\.mu, which is not held`
		c.mu.Unlock()
	}
}

// --- annotation validation --------------------------------------------------

type badAnnot struct {
	mu sync.Mutex
	v  int // vetrnn:guardedby nosuch // want `vetrnn:guardedby "nosuch" does not resolve`
	w  int // vetrnn:guardedby v // want `vetrnn:guardedby "v" does not resolve`
}

type badEmbed struct {
	sync.Mutex // vetrnn:guardedby Mutex // want `embedded field is not supported`
}
