package graphrnn

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// This file is the worker-pool fan-out under RunBatch: independent queries
// dispatched over the concurrency-safe DB. It is the unit the paper's
// experimental harness (and any serving front end) wants — Efentakis &
// Pfoser (ReHub) and Buchnik & Cohen both treat concurrent batched query
// execution as the baseline deployment mode. Every substrate works here,
// including HubLabel: the index's per-query scratch is pooled, so batch
// workers share one HubLabelIndex freely.
//
// Batches are context-aware: once the batch context is canceled, queued
// queries fail upfront without page I/O and in-flight ones abandon within
// one expansion step; FailFast turns the first error into a batch-level
// cancellation. Deadlines and budgets are per entry, in each Query's own
// QueryOptions.

// BatchOptions configures batch execution.
type BatchOptions struct {
	// Parallelism is the number of worker goroutines. Zero or negative
	// defaults to GOMAXPROCS. One worker degenerates to serial execution
	// in submission order. Every batch call reports the worker count
	// actually used (Parallelism capped by the batch size).
	Parallelism int
	// FailFast cancels the remainder of the batch after the first
	// failing query: queued entries fail upfront with ErrCanceled.
	FailFast bool
}

func (o *BatchOptions) workers(n int) int {
	w := 0
	if o != nil {
		w = o.Parallelism
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o *BatchOptions) failFast() bool { return o != nil && o.FailFast }

// BatchResult pairs one query's answer with its error. On success Err is
// nil; on an execution-control error (cancellation, deadline, budget)
// Result carries the partial answer and its stats, per the Run contract.
type BatchResult struct {
	Result *Result
	Err    error
}

// runBatch is RunBatch over any single-query engine (DB.Run, Sharded.Run):
// it fans the queries out over a worker pool under ctx and tallies the
// report. Once ctx is canceled (externally, by a batch deadline, or by
// FailFast) every entry not yet started fails upfront in run, before any
// page I/O, with the typed error and the empty partial Result of an
// expired-at-start query.
func runBatch(ctx context.Context, queries []Query, opt *BatchOptions, run func(context.Context, Query) (*Result, error)) *BatchReport {
	start := time.Now()
	n := len(queries)
	rep := &BatchReport{Results: make([]BatchResult, n)}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	do := func(i int) {
		r := &rep.Results[i]
		r.Result, r.Err = run(ctx, queries[i])
		if r.Err != nil && opt.failFast() {
			cancel()
		}
	}
	if n > 0 {
		rep.Workers = opt.workers(n)
	}
	if rep.Workers <= 1 {
		for i := range queries {
			do(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(rep.Workers)
		for w := 0; w < rep.Workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					do(i)
				}
			}()
		}
		for i := range queries {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	rep.Wall = time.Since(start)
	for _, r := range rep.Results {
		if r.Err != nil {
			rep.Failed++
		} else {
			rep.Succeeded++
		}
		if r.Result != nil {
			rep.Work.Add(r.Result.Stats)
		}
	}
	return rep
}
