package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunThreads: the runner starts every member at once, hands body i
// context i, and returns only after every member has returned.
func TestRunThreads(t *testing.T) {
	const n = 8
	ctxs := NewThreads(n, 100, 4, 50)
	for i, c := range ctxs {
		if c.Thread != 100+i || c.CPU != i%4 || c.Now() != 50 {
			t.Fatalf("context %d is thread %d on CPU %d at %d, want thread %d on CPU %d at 50", i, c.Thread, c.CPU, c.Now(), 100+i, i%4)
		}
	}
	var arrived sync.WaitGroup
	arrived.Add(n)
	var finished atomic.Int64
	err := RunThreads(ctxs, func(i int, ctx *Ctx) error {
		defer finished.Add(1)
		arrived.Done()
		arrived.Wait() // passes only once all n members run at once
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		if ctx != ctxs[i] {
			return fmt.Errorf("body %d got thread %d's context", i, ctx.Thread)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := finished.Load(); got != n {
		t.Fatalf("the runner returned with %d of %d members finished", got, n)
	}
}

// TestRunThreadsLowestIndexError: the error returned is the lowest-index
// member's, even when a higher-index member fails first, and the runner
// still waits for every member.
func TestRunThreadsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("member 1"), errors.New("member 3")
	failed := make(chan struct{})
	var finished atomic.Int64
	err := RunThreads(NewThreads(4, 0, 4, 0), func(i int, _ *Ctx) error {
		defer finished.Add(1)
		switch i {
		case 1:
			<-failed
			return errLow
		case 3:
			close(failed)
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("RunThreads returned %v, want %v", err, errLow)
	}
	if got := finished.Load(); got != 4 {
		t.Fatalf("the runner returned with %d of 4 members finished", got)
	}
}
