package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEveryIndexOnce runs many small runs from several goroutines
// at once through one pool and requires every index of every run to have
// run exactly once. Under -race it also checks that the caller sees every
// task's writes when Run returns, whether it polled for them or blocked.
func TestPoolRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(workers)
			defer p.Close()
			const callers, runs = 4, 300
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := 0; r < runs; r++ {
						n := 1 + (c+r)%3
						hits := make([]int, n)
						p.Run(n, func(i int) { hits[i]++ })
						for i, h := range hits {
							if h != 1 {
								t.Errorf("caller %d run %d: index %d of %d ran %d times", c, r, i, n, h)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// TestPoolInlineAtOneWorker requires a one-worker pool to run every task
// on the calling goroutine, in index order. The unsynchronized appends
// would be a data race under -race if any ran elsewhere.
func TestPoolInlineAtOneWorker(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if p.parallel() {
		t.Fatal("a one-worker pool has helpers")
	}
	var order []int
	p.Run(5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("tasks ran in order %v, want 0..4 in order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d tasks, want 5", len(order))
	}
}

// barrier returns a task that returns only once n tasks of its run have
// started, so each of n goroutines claims exactly one.
func barrier(n int32) func(int) {
	var started atomic.Int32
	return func(int) {
		started.Add(1)
		for started.Load() < n {
			runtime.Gosched()
		}
	}
}

// waitFor polls cond until it holds, failing the test after about 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting until %s", what)
}

// TestPoolHelpersPark pins when helpers stop polling, through the pool's
// gauge of helpers that are not parked and a clock that moves only when
// the test moves it. A helper that ran a task keeps polling while the
// clock stands still; a helper that claimed no task of a run parks at once,
// although its budget has not run out; and once the clock passes the
// budget every helper parks. A failure leaves the pool open: helpers that
// never park would hang Close.
func TestPoolHelpersPark(t *testing.T) {
	var nowNS atomic.Int64
	p := newPool(3, func() time.Time { return time.Unix(0, nowNS.Load()) })

	// Each goroutine, both helpers included, runs one of three tasks.
	p.Run(3, barrier(3))
	if got := p.awake.Load(); got != 2 {
		t.Fatalf("after a run both helpers took part in, %d helpers are awake, want 2 polling", got)
	}
	// The caller and one helper run the two tasks; the other helper
	// claims none.
	p.Run(2, barrier(2))
	waitFor(t, "the helper that claimed no task parks", func() bool { return p.awake.Load() == 1 })
	waitFor(t, "every helper parks once the budget has passed", func() bool {
		nowNS.Add(int64(spinBudget))
		return p.awake.Load() == 0
	})
	// Parked helpers still wake for work.
	p.Run(3, barrier(3))
	waitFor(t, "the helpers park again", func() bool {
		nowNS.Add(int64(spinBudget))
		return p.awake.Load() == 0
	})
	p.Close()
}

// spinTask burns about 50 µs of CPU on a current x86 core, the size of the
// step-1 loop's relink trainings.
func spinTask(sink *[2]uint64) func(int) {
	return func(i int) {
		x := uint64(i + 1)
		for k := 0; k < 30000; k++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink[i] = x
	}
}

// BenchmarkPoolRun times back-to-back runs of two ~50 µs tasks: the
// hand-off between the caller and a helper that the spin budget makes
// cheap. At one worker both tasks run inline; at two, a run should take
// little more than one task.
func BenchmarkPoolRun(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			var sink [2]uint64
			task := spinTask(&sink)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(2, task)
			}
		})
	}
}
