package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilCtxIsUnbounded(t *testing.T) {
	var e *Ctx
	if err := e.Check(1 << 60); err != nil {
		t.Fatalf("nil Ctx Check = %v", err)
	}
	e.Emit(1, 2) // must not panic
}

func TestNewSkipsBookkeepingWhenUnbounded(t *testing.T) {
	if e := New(context.Background(), Budget{}, nil); e != nil {
		t.Fatalf("background context with a zero budget built %+v, want nil", e)
	}
	reads := func() int64 { return 0 }
	if e := New(context.Background(), Budget{}, reads); e != nil {
		t.Fatal("an I/O hook alone must not bound the query")
	}
	if New(context.Background(), Budget{MaxNodes: 1}, nil) == nil {
		t.Fatal("a node budget needs a Ctx")
	}
	if New(context.Background(), Budget{MaxIOReads: 1}, reads) == nil {
		t.Fatal("an I/O budget needs a Ctx")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if New(ctx, Budget{}, nil) == nil {
		t.Fatal("a cancelable context needs a Ctx")
	}
}

// TestCheckOrdering: with several limits tripped at once, Check reports
// cancellation or the deadline first, then the node budget, then the I/O
// budget.
func TestCheckOrdering(t *testing.T) {
	reads := int64(0)
	io := func() int64 { return reads }
	both := Budget{MaxNodes: 10, MaxIOReads: 5}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()

	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, ErrCanceled},
		{"deadline", expired, ErrDeadlineExceeded},
	} {
		reads = 0
		e := New(tc.ctx, both, io)
		reads = 100
		if err := e.Check(100); !errors.Is(err, tc.want) {
			t.Fatalf("%s with both budgets blown: Check = %v, want %v", tc.name, err, tc.want)
		}
	}

	reads = 0
	e := New(context.Background(), both, io)
	if err := e.Check(10); err != nil {
		t.Fatalf("Check at the node budget = %v, want nil (the budget is inclusive)", err)
	}
	reads = 100
	err := e.Check(11)
	if !errors.Is(err, ErrBudgetExceeded) || !strings.Contains(err.Error(), "nodes popped") {
		t.Fatalf("both budgets blown: Check = %v, want the node budget", err)
	}
	err = e.Check(0)
	if !errors.Is(err, ErrBudgetExceeded) || !strings.Contains(err.Error(), "physical reads") {
		t.Fatalf("I/O budget blown: Check = %v, want the I/O budget", err)
	}
}

// TestIOBudgetIsRelative: the threshold counts reads from the query's
// start, not from zero, and is vacuous without a counter to read.
func TestIOBudgetIsRelative(t *testing.T) {
	reads := int64(1000)
	e := New(context.Background(), Budget{MaxIOReads: 5}, func() int64 { return reads })
	reads = 1005
	if err := e.Check(0); err != nil {
		t.Fatalf("5 reads into a budget of 5: Check = %v", err)
	}
	reads = 1006
	if err := e.Check(0); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("6 reads into a budget of 5: Check = %v, want ErrBudgetExceeded", err)
	}
	if err := New(context.Background(), Budget{MaxIOReads: 1}, nil).Check(0); err != nil {
		t.Fatalf("I/O budget without a counter: Check = %v, want nil", err)
	}
}

// doneCtx is a context whose Done channel is closed and whose Err is
// whatever the test says.
type doneCtx struct {
	context.Context
	err error
}

func (c doneCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func (c doneCtx) Err() error { return c.err }

func TestCtxErrMapping(t *testing.T) {
	odd := errors.New("odd cause")
	for _, tc := range []struct {
		name string
		err  error
		want error
	}{
		{"deadline", context.DeadlineExceeded, ErrDeadlineExceeded},
		{"canceled", context.Canceled, ErrCanceled},
		{"done without an error", nil, ErrCanceled},
		{"foreign error", odd, ErrCanceled},
	} {
		e := New(doneCtx{context.Background(), tc.err}, Budget{}, nil)
		err := e.Check(0)
		if !errors.Is(err, tc.want) || !IsExecErr(err) {
			t.Fatalf("%s: Check = %v, want %v", tc.name, err, tc.want)
		}
		if tc.err == odd && !strings.Contains(err.Error(), "odd cause") {
			t.Fatalf("foreign error lost its cause: %v", err)
		}
	}
	if IsExecErr(odd) || IsExecErr(nil) {
		t.Fatal("IsExecErr accepts errors that are not execution-control errors")
	}
}

func TestEmit(t *testing.T) {
	e := New(context.Background(), Budget{MaxNodes: 1}, nil)
	e.Emit(1, 2) // no sink attached: a no-op
	type hit struct {
		p int32
		d float64
	}
	var got []hit
	e.OnMember(func(p int32, d float64) { got = append(got, hit{p, d}) })
	e.Emit(7, 0)
	e.Emit(3, 1.5)
	if len(got) != 2 || got[0] != (hit{7, 0}) || got[1] != (hit{3, 1.5}) {
		t.Fatalf("sink saw %v", got)
	}
}
