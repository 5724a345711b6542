package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
)

// spinBudget is how long a helper that finished a run polls for the next
// run before it parks, and how long Run's caller polls for its helpers'
// last tasks before it blocks. Waking a parked goroutine takes about as
// long as the build's typical task runs: the step-1 loop hands each
// merger's two relink trainings, tens of microseconds each, to the pool.
// Measured on 2 vCPUs (Go 1.24.0) with runs of two equal tasks and 5 µs of
// serial work between runs, against one goroutine doing all the work:
// with both sides parking, 5, 20 and 50 µs tasks ran at 0.82×, 0.95× and
// 0.97×; with the helpers polling and the caller blocking, at 1.08×, 1.12×
// and 1.20×; with both sides polling up to 100 µs, at 1.13×, 1.36× and
// 1.70×.
const spinBudget = 100 * time.Microsecond

// Pool is the build's shared parallelism: the calling goroutine plus a
// fixed set of helper goroutines, all draining one shared task index.
// Every unit of work is identified by its index and writes its result
// into a caller-owned slot, so results are position-deterministic — the
// caller then consumes them in index order, which is how the build stays
// bit-identical across worker counts (the contract of parallel_test.go
// and the homlint determinism analyzer).
//
// One pool serves a whole clustering run and is reused by every phase —
// leaf training, initial edge builds, per-merger re-evaluations, step-2
// lookaheads and prediction caching — and core.Build retrains its
// concepts through another. The caller works too, so a run never waits
// for a helper to wake before its first task starts. A helper that
// finished a task polls for the next run for spinBudget before it parks,
// and the caller polls for the helpers' last tasks as long before it
// blocks, so the build's back-to-back runs of short tasks hand off
// without a wake-up. A helper that claimed no task of a run parks at once:
// the run did not need it, and on a host with more cores than a run has
// tasks, polling would only burn a core.
//
// Runs from different goroutines may overlap, each caller draining its
// own tasks. Tasks do not call Run: a nested run would count the helpers
// busy with the outer run's tasks as on their way, and could run alone.
type Pool struct {
	// jobs wakes parked helpers; nil when the pool has none.
	jobs chan *poolJob
	// job is the latest run, published for the helpers still polling.
	job atomic.Pointer[poolJob]
	// awake counts helpers that are not parked: running tasks, polling,
	// or on their way to park. Run wakes only as many parked helpers as
	// its tasks need beyond these; tests read it as a gauge.
	awake atomic.Int32
	// helpers is the number of helper goroutines.
	helpers int
	now     clock.Clock
	stop    sync.WaitGroup
}

// poolJob is one run: n tasks claimed through next by whichever
// goroutine gets there first. finished and done both count finished
// tasks, not helpers, so a helper that wakes after every task is claimed
// costs the caller nothing: the caller polls finished, then blocks on
// done.
type poolJob struct {
	fn       func(int)
	n        int64
	next     atomic.Int64
	finished atomic.Int64
	done     sync.WaitGroup
}

// drain runs tasks until none is left to claim and returns how many it
// ran.
func (j *poolJob) drain() int {
	ran := 0
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.fn(int(i))
		j.finished.Add(1)
		j.done.Done()
		ran++
	}
	return ran
}

// NewPool returns a pool of workers total parallelism: the caller of Run
// plus workers−1 helper goroutines. workers <= 0 selects GOMAXPROCS;
// workers == 1 starts no helper, and every run executes inline on the
// caller's goroutine. Close the pool when done.
func NewPool(workers int) *Pool {
	return newPool(workers, clock.Wall)
}

// newPool is NewPool reading the spin deadlines from now.
func newPool(workers int, now clock.Clock) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{now: now}
	if workers <= 1 {
		return p
	}
	p.helpers = workers - 1
	p.jobs = make(chan *poolJob, p.helpers)
	p.awake.Store(int32(p.helpers))
	p.stop.Add(p.helpers)
	for h := 0; h < p.helpers; h++ {
		go p.help()
	}
	return p
}

// help is a helper goroutine's loop: park until a run needs it, then
// drain runs for as long as they keep coming within the spin budget.
func (p *Pool) help() {
	defer p.stop.Done()
	var last *poolJob
	for {
		j := p.park(last)
		if j == nil {
			return
		}
		for j != nil {
			last = j
			if j.drain() == 0 {
				// The run finished without this helper, so runs are
				// covered without it: park instead of polling.
				break
			}
			j = p.poll(last)
		}
	}
}

// park blocks until a run newer than last is published or sent, and
// returns it; nil once the pool is closed.
func (p *Pool) park(last *poolJob) *poolJob {
	p.awake.Add(-1)
	// A run that read awake before the decrement sent no wake-up: take
	// it here. One whose wake-up is also sent costs a later spurious wake,
	// which claims nothing.
	if j := p.job.Load(); j != last {
		p.awake.Add(1)
		return j
	}
	j, ok := <-p.jobs
	if !ok {
		return nil
	}
	p.awake.Add(1)
	return j
}

// poll waits up to spinBudget for a run newer than last and returns it;
// nil when none came.
func (p *Pool) poll(last *poolJob) *poolJob {
	deadline := p.now().Add(spinBudget)
	for {
		if j := p.job.Load(); j != last {
			return j
		}
		if !p.now().Before(deadline) {
			return nil
		}
		runtime.Gosched()
	}
}

// parallel reports whether the pool has helper goroutines.
func (p *Pool) parallel() bool { return p.helpers > 0 }

// Run executes fn(0..n-1) on the caller and on up to min(n−1, workers−1)
// helpers, and returns when all calls have completed. The assignment of
// indices to goroutines is scheduling-dependent, but callers only ever
// read per-index results after Run returns, so outcomes do not depend on
// it.
func (p *Pool) Run(n int, fn func(int)) {
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
	p.job.Store(j)
	for h := min(n-1, p.helpers) - int(p.awake.Load()); h > 0; h-- {
		select {
		case p.jobs <- j:
		default:
			// Every helper is still busy with, or not yet awake for, an
			// earlier wake-up; the caller drains whatever they miss.
		}
	}
	j.drain()
	if j.finished.Load() < j.n {
		deadline := p.now().Add(spinBudget)
		for j.finished.Load() < j.n && p.now().Before(deadline) {
			runtime.Gosched()
		}
	}
	j.done.Wait()
}

// Close stops the helpers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p.jobs != nil {
		// An empty run moves the polling helpers on to park, where they
		// find jobs closed.
		p.job.Store(&poolJob{})
		close(p.jobs)
		p.stop.Wait()
	}
}
