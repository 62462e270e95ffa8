package graphrnn

import (
	"context"
	"iter"
)

// This file is the execution half of the query API: one engine surface —
// Run for a single query, RunBatch for worker-pool fan-out, Stream for
// incremental member delivery — executing any planned Query. Every
// cross-cutting feature (admission control, sharding, async execution)
// plugs in here.

// Run executes one declarative query: it plans the substrate (see DB.Plan),
// runs it under ctx plus the query's embedded QueryOptions, and returns the
// answer with the planner's decision in Result.Plan.
//
// A query stopped by cancellation, a deadline or a budget returns a typed
// error (ErrCanceled / ErrDeadlineExceeded / ErrBudgetExceeded; match with
// errors.Is or IsExecErr) and, always, a non-nil partial Result beside it:
// the Plan, the members confirmed and the work counted up to the point it
// was abandoned. A query whose deadline has already passed (or whose
// context is already canceled) at the start fails before any page I/O, so
// its partial Result carries the Plan, no members and zero Stats. Every
// other error invalidates the answer and returns a nil Result. RunBatch
// entries, Stream's terminal error and Sharded.Run follow the same
// contract. A background context with zero QueryOptions pays no
// bookkeeping at all.
func (db *DB) Run(ctx context.Context, q Query) (*Result, error) {
	pl, err := db.plan(q)
	if err != nil {
		return nil, err
	}
	ec, cancel, err := db.newExec(ctx, &q.QueryOptions)
	if err != nil {
		return &Result{Plan: pl.plan}, err
	}
	defer cancel()
	res, err := db.runPlanned(ec, &pl)
	if res != nil {
		res.Plan = pl.plan
	}
	return res, err
}

// RunBatch executes a slice of declarative queries over a worker pool and
// reports per-query results (input order), the worker count used, and
// aggregate statistics. Entries are independent: each is planned and run as
// if through Run, so one batch may mix kinds, shapes and substrates.
//
// Batches are context-aware: cancel ctx (or let its deadline pass) and the
// entries not yet started fail upfront with the typed error, like any
// expired-at-start query; opt.FailFast promotes the first error to a
// batch-level cancellation. Each entry is bounded by its own embedded
// QueryOptions, and its error lands in its Results slot.
func (db *DB) RunBatch(ctx context.Context, queries []Query, opt *BatchOptions) *BatchReport {
	return runBatch(ctx, queries, opt, db.Run)
}

// Stream executes one declarative query and yields each result member the
// moment the engine confirms it, instead of buffering the full answer:
// RkNN members arrive in confirmation order (not id order) while the
// expansion is still running; KindKNN neighbors arrive in ascending
// distance order. Breaking out of the loop cancels the underlying query
// within one expansion step.
//
// The final iteration reports a terminal error, if any, as (Hit{}, err) —
// including the typed execution errors after a deadline, cancellation or
// budget cut the stream short. A fully consumed stream with no error pair
// delivered exactly the members Run would have returned.
func (db *DB) Stream(ctx context.Context, q Query) iter.Seq2[Hit, error] {
	return func(yield func(Hit, error) bool) {
		pl, err := db.plan(q)
		if err != nil {
			yield(Hit{}, err)
			return
		}
		// A cancelable context guarantees a non-nil exec.Ctx, which is what
		// carries the member sink; canceling it is also how an abandoned
		// consumer stops the producer.
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ec, ecancel, err := db.newExec(sctx, &q.QueryOptions)
		if err != nil {
			yield(Hit{}, err)
			return
		}
		defer ecancel()

		hits := make(chan Hit, 64)
		ec.OnMember(func(p int32, d float64) {
			select {
			case hits <- Hit{P: PointID(p), Distance: d}:
			case <-sctx.Done():
			}
		})
		var rerr error
		go func() {
			defer close(hits)
			res, err := db.runPlanned(ec, &pl)
			if res != nil && pl.plan.Kind == KindKNN {
				// The forward search reuses the range-NN machinery, which
				// collects before sorting; its neighbors stream here, in
				// ascending distance order, once confirmed.
				for _, n := range res.Neighbors {
					ec.Emit(int32(n.P), n.Distance)
				}
			}
			rerr = err
		}()
		for h := range hits {
			if !yield(h, nil) {
				return
			}
		}
		// hits is closed: the producer is done and rerr is visible.
		if rerr != nil {
			yield(Hit{}, rerr)
		}
	}
}
