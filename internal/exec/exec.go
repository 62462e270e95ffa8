// Package exec carries per-query execution controls — cancellation, a
// deadline and work budgets — through the query algorithms. It is the
// substrate of the engine layer: every algorithm loop in internal/core and
// the hub-label intersection path poll a *Ctx between expansion steps and
// abandon the query with a typed error instead of running to completion.
//
// The contract every traversal keeps is measured, not assumed: a query
// under Budget.MaxNodes = B stops having popped at most B + CheckStride
// nodes, because the main loops poll on every expansion step and the
// sub-expansions every CheckStride-th pop. Under MaxIOReads = R it stops
// at the first poll past R, a few pages later: the adjacency pages of up
// to CheckStride pops on the expansion substrates, one label's pages on
// hub-label. The root package's TestBudgetPartialAnswers holds both
// bounds on every substrate, kind and maintenance operation.
//
// A nil *Ctx is the unbounded context: every method short-circuits on the
// nil receiver, so the plain (non-context) query path pays only a nil
// check per expansion step.
package exec

import (
	"context"
	"errors"
	"fmt"
)

// Typed execution errors. They are returned wrapped (with the offending
// limit in the message); match them with errors.Is.
var (
	// ErrCanceled reports that the query's context was canceled mid-flight.
	ErrCanceled = errors.New("query canceled")
	// ErrDeadlineExceeded reports that the query's deadline passed
	// mid-flight (or had already passed when the query was issued).
	ErrDeadlineExceeded = errors.New("query deadline exceeded")
	// ErrBudgetExceeded reports that the query exhausted its work budget
	// (nodes popped or physical page reads).
	ErrBudgetExceeded = errors.New("query budget exceeded")
)

// Budget caps the work one query may perform. The zero Budget is
// unlimited.
type Budget struct {
	// MaxNodes bounds the total number of nodes popped by the query: the
	// main expansion plus every sub-query (range-NN probes, verifications,
	// the lazy-EP point heap). 0 means unlimited.
	MaxNodes int64
	// MaxIOReads bounds the physical page reads performed while the query
	// runs. The reads are observed on the shared buffer pool, so under
	// concurrent traffic the charge is approximate (reads by overlapping
	// queries count toward the busiest query's budget). A disk-backed
	// query under this budget replays the page accesses its adjacency
	// session deferred before every poll, so the count a poll sees is the
	// one reading every list through the pool would have left. 0 means
	// unlimited.
	MaxIOReads int64
}

// Zero reports whether the budget imposes no limit.
func (b Budget) Zero() bool { return b.MaxNodes == 0 && b.MaxIOReads == 0 }

// CheckStride is the polling interval, in popped nodes, that sub-expansions
// use between context checks: the main loops poll on every expansion step,
// the (much hotter) sub-query loops every CheckStride-th pop. It is a power
// of two so the stride test compiles to a mask.
const CheckStride = 64

// Ctx is the execution context of one query. It is not safe for concurrent
// use — each query runs on one goroutine and owns its Ctx.
type Ctx struct {
	done    <-chan struct{}
	ctx     context.Context
	nodeMax int64 // 0 = unlimited
	ioMax   int64 // absolute threshold (reads at start + MaxIOReads); 0 = unlimited
	io      func() int64
	emit    func(p int32, d float64)
}

// OnMember attaches f as the query's streaming member sink: the algorithm
// loops call Emit for every result member the moment it is confirmed, in
// confirmation order. f runs on the query's goroutine. d carries a network
// distance only for searches that have one per member (KNN); RkNN members
// report 0.
func (e *Ctx) OnMember(f func(p int32, d float64)) { e.emit = f }

// Emit forwards one confirmed member to the streaming sink, if any. A nil
// receiver or an unset sink makes it a no-op, so non-streamed queries pay
// one nil check per confirmed member.
func (e *Ctx) Emit(p int32, d float64) {
	if e != nil && e.emit != nil {
		e.emit(p, d)
	}
}

// New builds the execution context of a query issued under ctx with budget
// b. io reports the cumulative physical page reads of the query's buffer
// pool (nil when nothing is disk-backed, which makes an I/O budget
// vacuous). New returns nil — the unbounded context — when ctx carries no
// cancellation or deadline and the budget is zero, so unbounded queries
// skip all bookkeeping.
func New(ctx context.Context, b Budget, io func() int64) *Ctx {
	done := ctx.Done()
	if done == nil && b.Zero() {
		return nil
	}
	e := &Ctx{done: done, ctx: ctx, nodeMax: b.MaxNodes}
	if b.MaxIOReads > 0 && io != nil {
		e.io = io
		e.ioMax = io() + b.MaxIOReads
	}
	return e
}

// Check polls the context: it returns a typed error when the query was
// canceled, its deadline passed, or work (the total nodes popped so far) or
// the observed physical reads exceed the budget. A nil receiver always
// returns nil.
func (e *Ctx) Check(work int64) error {
	if e == nil {
		return nil
	}
	if e.done != nil {
		select {
		case <-e.done:
			return e.ctxErr()
		default:
		}
	}
	if e.nodeMax > 0 && work > e.nodeMax {
		return fmt.Errorf("%w: %d nodes popped (budget %d)", ErrBudgetExceeded, work, e.nodeMax)
	}
	if e.io != nil {
		if reads := e.io(); reads > e.ioMax {
			return fmt.Errorf("%w: pool at %d physical reads (budget ends at %d)", ErrBudgetExceeded, reads, e.ioMax)
		}
	}
	return nil
}

// ReadsIO reports whether Check reads the buffer pool's physical-read
// counter: the query runs under an I/O budget. A nil receiver reads none.
func (e *Ctx) ReadsIO() bool { return e != nil && e.io != nil }

// ctxErr maps the context's error to the package's typed errors.
func (e *Ctx) ctxErr() error {
	err := e.ctx.Err()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	case err == nil:
		// Done closed without an error: treat as cancellation.
		return ErrCanceled
	default:
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
}

// IsExecErr reports whether err is one of the typed execution errors — the
// errors that carry a partial result rather than invalidate it.
func IsExecErr(err error) bool {
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrBudgetExceeded)
}
