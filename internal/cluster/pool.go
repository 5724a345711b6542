package cluster

import (
	"sync"
	"sync/atomic"
)

// workerPool is the engine's shared training/evaluation parallelism: the
// calling goroutine plus a fixed set of helper goroutines, all draining
// one shared task index. Every unit of work is identified by its index and
// writes its result into a caller-owned slot, so results are position-
// deterministic — the caller then consumes them in index order, which is
// how the engine keeps the clustering bit-identical across worker counts
// (the contract of parallel_test.go and the homlint determinism analyzer).
//
// One pool lives for the whole clustering run and is reused by every
// phase — leaf training, initial edge builds, per-merger re-evaluations,
// and prediction caching — instead of spawning a fresh goroutine set per
// phase. The caller works too, so a run never waits for a helper to wake
// up before its first task starts, and a run whose tasks the caller
// finishes alone never waits for one at all.
type workerPool struct {
	// jobs wakes idle helpers; nil when the pool has none.
	jobs chan *poolJob
	// helpers is the number of helper goroutines.
	helpers int
	stop    sync.WaitGroup
}

// poolJob is one run: n tasks claimed through next by whichever
// goroutine gets there first. done counts finished tasks, not helpers, so
// a helper that wakes after every task is claimed costs the caller
// nothing.
type poolJob struct {
	fn   func(int)
	n    int64
	next atomic.Int64
	done sync.WaitGroup
}

// drain runs tasks until none is left to claim.
func (j *poolJob) drain() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.fn(int(i))
		j.done.Done()
	}
}

// newWorkerPool returns a pool of workers total parallelism: the caller
// of run plus workers−1 helper goroutines. workers <= 1 starts no helper,
// and every run executes inline on the caller's goroutine.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{}
	if workers <= 1 {
		return p
	}
	p.helpers = workers - 1
	p.jobs = make(chan *poolJob, p.helpers)
	p.stop.Add(p.helpers)
	for h := 0; h < p.helpers; h++ {
		go p.help()
	}
	return p
}

// help is a helper goroutine's loop: drain every job it is woken for.
func (p *workerPool) help() {
	defer p.stop.Done()
	for j := range p.jobs {
		j.drain()
	}
}

// parallel reports whether the pool has helper goroutines.
func (p *workerPool) parallel() bool { return p.helpers > 0 }

// run executes fn(0..n-1) on the caller and on up to min(n−1, workers−1)
// helpers, and returns when all calls have completed. The assignment of
// indices to goroutines is scheduling-dependent, but callers only ever
// read per-index results after run returns, so outcomes do not depend on
// it.
func (p *workerPool) run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p.helpers == 0 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &poolJob{fn: fn, n: int64(n)}
	j.done.Add(n)
	for h := min(n-1, p.helpers); h > 0; h-- {
		select {
		case p.jobs <- j:
		default:
			// Every helper is still busy with, or not yet awake for, an
			// earlier wake-up; the caller drains whatever they miss.
		}
	}
	j.drain()
	j.done.Wait()
}

// close stops the helpers. The pool must not be used afterwards.
func (p *workerPool) close() {
	if p.jobs != nil {
		close(p.jobs)
		p.stop.Wait()
	}
}
