package core

import (
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

func errKTooSmall(k int) error {
	return fmt.Errorf("core: k must be >= 1, got %d", k)
}
