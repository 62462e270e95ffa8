package graphrnn

import (
	"context"
	"fmt"
	"time"

	"graphrnn/internal/exec"
)

// This file holds the execution-bound plumbing of the engine: QueryOptions,
// Budget and the typed error taxonomy.
//
// # Error taxonomy
//
//	ErrCanceled         the context was canceled mid-flight
//	ErrDeadlineExceeded the context's or QueryOptions' deadline passed
//	ErrBudgetExceeded   the query exhausted MaxNodes or MaxIOReads
//
// All three are returned wrapped; match them with errors.Is. DB.Run states
// the partial-Result contract that accompanies them.
//
// Cancellation is polled on every main-expansion step and every
// exec.CheckStride pops inside sub-expansions, so a canceled query returns
// within one expansion step.

// Typed execution errors, re-exported from the engine substrate.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadlineExceeded reports that the query's deadline passed.
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
	// ErrBudgetExceeded reports that the query exhausted its work budget.
	ErrBudgetExceeded = exec.ErrBudgetExceeded
)

// IsExecErr reports whether err is one of the typed execution-control
// errors — the errors that accompany a partial Result rather than
// invalidate it.
func IsExecErr(err error) bool { return exec.IsExecErr(err) }

// Budget caps the work one query may perform. The zero Budget is
// unlimited.
type Budget struct {
	// MaxNodes bounds the total nodes popped by the query: the main
	// expansion plus every sub-query (range-NN probes, verifications, the
	// lazy-EP point heap). 0 = unlimited.
	MaxNodes int64
	// MaxIOReads bounds the physical page reads observed on the DB's
	// buffer pool while the query runs. Under concurrent traffic the
	// charge is approximate: overlapping queries' faults count toward
	// whichever budget trips first. 0 = unlimited.
	MaxIOReads int64
}

// QueryOptions bounds one query. Embedded in Query; the zero value applies
// only the Run context's own cancellation/deadline.
type QueryOptions struct {
	// Timeout, when positive, derives a per-query deadline from the
	// context at query start (the tighter of the two deadlines wins).
	Timeout time.Duration
	// Budget caps the query's work.
	Budget Budget
}

// newExec builds the execution context of one query: the per-query
// deadline, the budget, and the I/O counter hook of the DB's buffer pool.
// It fails upfront — before the caller performs any page I/O, and only with
// a typed execution error — when the deadline has already passed or the
// context is already canceled. cancel must be called when the query finishes
// to release the timeout timer.
func (db *DB) newExec(ctx context.Context, opt *QueryOptions) (ec *exec.Ctx, cancel func(), err error) {
	cancel = func() {}
	if opt != nil && opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	}
	var b exec.Budget
	if opt != nil {
		b = exec.Budget(opt.Budget)
	}
	var io func() int64
	if b.MaxIOReads > 0 {
		io = db.pool.p.Reads
	}
	ec = exec.New(ctx, b, io)
	if err := ec.Check(0); err != nil {
		cancel()
		return nil, nil, err
	}
	// A deadline that has already passed fails upfront even when the
	// context's timer has not fired yet (timers carry delivery latency;
	// the wall clock does not) — so a microscopic Timeout rejects
	// deterministically instead of racing the first poll.
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		cancel()
		return nil, nil, fmt.Errorf("%w: deadline already passed at query start", ErrDeadlineExceeded)
	}
	return ec, cancel, nil
}
