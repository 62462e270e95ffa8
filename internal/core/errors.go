package core

import (
	"errors"
	"fmt"

	"graphrnn/internal/exec"
)

// Typed execution-control errors, re-exported from internal/exec: a query
// run through a Bound searcher returns one of these (wrapped; match with
// errors.Is) instead of running to completion. The accompanying Result
// carries the stats — and any members confirmed — up to the point the
// query was abandoned.
var (
	ErrCanceled         = exec.ErrCanceled
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
	ErrBudgetExceeded   = exec.ErrBudgetExceeded
)

// ErrNoEdge reports a location or a data point on an edge the graph does
// not contain.
var ErrNoEdge = errors.New("edge not in graph")

func errKTooSmall(k int) error {
	return fmt.Errorf("core: k must be >= 1, got %d", k)
}
