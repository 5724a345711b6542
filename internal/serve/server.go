package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
	"highorder/internal/compiled"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/fault"
	"highorder/internal/obs"
	"highorder/internal/store"
)

// Options configure a Server. The zero value selects sane defaults.
type Options struct {
	// QueueDepth bounds the classify/observe work queue; <= 0 selects 256.
	QueueDepth int
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// MicroBatch is the maximum number of queued tasks one worker wakeup
	// drains and executes together; <= 0 selects 8, 1 disables batching.
	MicroBatch int
	// SessionTTL evicts sessions idle longer than this; <= 0 selects
	// 15 minutes. To disable eviction set a very large TTL.
	SessionTTL time.Duration
	// MaxSessions bounds live sessions; <= 0 selects 10000.
	MaxSessions int
	// RetryAfter is the Retry-After hint on 429 responses; <= 0 selects 1s.
	RetryAfter time.Duration
	// JanitorInterval is the TTL sweep period; <= 0 selects SessionTTL/4
	// (bounded below at 1s).
	JanitorInterval time.Duration
	// RequestTimeout bounds how long a queued task may wait before
	// execution: a task dequeued after its deadline is answered 503
	// without touching the predictor, so the result is never ambiguous —
	// either the work was applied and acknowledged, or it provably was
	// not. <= 0 selects 10 seconds.
	RequestTimeout time.Duration
	// ShedDepth sheds classify/observe work with 503 + Retry-After before
	// it is enqueued once the queue holds at least this many tasks —
	// proactive load shedding, distinct from the 429 answered when the
	// queue is completely full. 0 disables shedding.
	ShedDepth int
	// Clock supplies time for TTL accounting and latency metrics; nil
	// selects the wall clock. Tests inject a clock.Fake.
	Clock clock.Clock
	// Trace records a span per classify/observe micro-batch when non-nil.
	// The tracer retains every span until exported, so it is meant for
	// bounded diagnostic runs (tests, replays, load probes), not for a
	// long-lived production server. nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Recorder is the always-on flight recorder: classify/observe work
	// attaches to the request's X-Hom-Trace context, and notable events
	// (deadline expiry, shed, fired faults) trigger automatic ring dumps.
	// nil — the production default unless tracing is enabled — costs one
	// pointer check per site and zero allocations.
	Recorder *obs.Recorder
	// Fault installs a fault injector on the serving hot paths (request
	// drop, response delay, queue-overflow pressure, label loss/delay).
	// nil — the production default — disables every point at the cost of
	// one pointer check per site and zero allocations.
	Fault *fault.Injector
	// Sleep performs injected delays; nil selects the real time.Sleep.
	// Tests inject a clock.Fake.Sleeper so delay faults are instant.
	Sleep clock.Sleeper
	// Tier configures the tiered session store (bounded hot set, disk
	// spill, write-ahead label log). The zero value disables tiering;
	// setting SpillDir enables it. Servers with tiering must be built with
	// NewTiered so the spill-directory open error can be handled.
	Tier TierOptions
	// Interpreted forces every session onto the interpreted
	// core.Predictor, skipping ahead-of-time compilation of the model
	// (internal/compiled). The default compiles when the model's
	// classifiers support it and falls back to interpreted when they
	// don't — the two are bit-identical, so this switch only exists for
	// A/B benchmarking and for isolating a suspected compiler bug.
	Interpreted bool
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MicroBatch <= 0 {
		o.MicroBatch = 8
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = 15 * time.Minute
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 10000
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.JanitorInterval <= 0 {
		o.JanitorInterval = o.SessionTTL / 4
		if o.JanitorInterval < time.Second {
			o.JanitorInterval = time.Second
		}
	}
	return o
}

// taskKind distinguishes queued work.
type taskKind int

const (
	taskClassify taskKind = iota
	taskObserve
)

// Flight-recorder span names, interned once.
var (
	flightClassify = obs.InternName("serve.classify")
	flightObserve  = obs.InternName("serve.observe")
	flightDeadline = obs.InternName("serve.deadline_expired")
	flightShed     = obs.InternName("serve.shed")
	flightSwitch   = obs.InternName("serve.concept_switch")
)

// faultReasons pre-renders trigger reason strings so the fault observer
// allocates nothing per firing.
var faultReasons = func() [fault.NumPoints]string {
	var rs [fault.NumPoints]string
	for p := fault.Point(0); p < fault.NumPoints; p++ {
		rs[p] = "fault_" + p.String()
	}
	return rs
}()

// task is one unit of queued predictor work plus its reply channel.
type task struct {
	kind      taskKind
	sess      *Session
	recs      []data.Record
	withProba bool
	// tc is the request's trace context (adopted from X-Hom-Trace), so
	// the span recorded at execution time joins the caller's trace.
	tc obs.TraceContext
	// deadline is checked at dequeue time: an expired task is answered
	// without touching the predictor, so the caller can safely retry.
	deadline time.Time
	done     chan taskResult
}

type taskResult struct {
	classify ClassifyResponse
	observe  ObserveResponse
	// expired marks a task whose deadline passed while it sat in the
	// queue; the predictor was not touched.
	expired bool
	// err reports an execution failure. A session spilled out from under
	// the task is retryable (503 + Retry-After: the predictor was not
	// touched). An applied observe that could not be durably logged is
	// NOT — the batch is live in memory and a retry would double-apply
	// it — so errQuarantined is answered 500 without a retry hint.
	err error
}

// errQuarantined marks a session whose in-memory predictor absorbed an
// observe batch the write-ahead log failed to record durably (a real WAL
// I/O error, not an injected crash). The state the client has been
// acknowledged against has diverged from what a restart would recover;
// retrying the batch would double-apply it. The session is refused
// non-retryably and removed, so clients recreate it from durable state.
var errQuarantined = errors.New("observe applied in memory but not durably logged; session quarantined and removed — recreate it")

// maxSpillResolves bounds how often runTasks chases a session that keeps
// spilling out from under its queued tasks before refusing them 503;
// exhaustions are counted in hom_spill_retry_exhausted_total.
const maxSpillResolves = 8

// Server serves one immutable model to many concurrent sessions.
type Server struct {
	model *core.Model
	// compiled is the model's ahead-of-time compiled form; nil when
	// Options.Interpreted is set or a concept's classifier type is not
	// compilable (the server then serves interpreted — slower, never
	// different).
	compiled *compiled.Model
	opts     Options
	clk      clock.Clock
	table    *sessionTable
	metrics  *metrics
	// store is the tiered session store; nil when Options.Tier is zero.
	store *store.Store[*Session]

	queue chan *task
	// qmu guards qclosed against concurrent enqueues; Close takes the
	// write side so no handler can send on a closed channel.
	qmu     sync.RWMutex
	qclosed bool

	wg         sync.WaitGroup
	janitorEnd chan struct{}
	startOnce  sync.Once
	closeOnce  sync.Once
	mux        *http.ServeMux

	// draining, when set, refuses *new* sessions (create and admin
	// restore) with 503 + Retry-After while existing sessions keep
	// classifying and flushing queued observes — the state a gateway puts
	// a replica in before migrating its sessions away and removing it
	// from the ring. Toggled by POST /admin/drain or SetDraining.
	draining atomic.Bool
}

// New builds a server over m. Call Start to launch the worker pool, then
// expose Handler via an http.Server (or use Serve, which does both).
// With tiering enabled (Options.Tier.SpillDir set) opening the spill
// directory can fail; New panics where NewTiered reports the error, so
// callers that enable tiering should prefer NewTiered.
func New(m *core.Model, opts Options) *Server {
	s, err := NewTiered(m, opts)
	if err != nil {
		panic(fmt.Sprintf("serve.New: %v", err))
	}
	return s
}

// NewTiered is New with the tiered-store open error surfaced: a
// corrupted-beyond-salvage or unwritable spill directory refuses to serve
// rather than silently starting empty.
func NewTiered(m *core.Model, opts Options) (*Server, error) {
	o := opts.withDefaults()
	clk := o.Clock.OrWall()
	s := &Server{
		model:      m,
		opts:       o,
		clk:        clk,
		table:      newSessionTable(clk, o.SessionTTL, o.MaxSessions, nil),
		queue:      make(chan *task, o.QueueDepth),
		janitorEnd: make(chan struct{}),
	}
	if !o.Interpreted {
		// Best-effort compilation: an unsupported classifier type means
		// the model serves interpreted, which is bit-identical (see
		// internal/compiled's equivalence contract) — degraded in speed,
		// never in behavior.
		if cm, err := compiled.Compile(m); err == nil {
			s.compiled = cm
		}
	}
	// The predictor factory must be installed before openTier below:
	// recovery runs Create/Hydrate callbacks while the tier opens.
	s.table.newPredictor = s.newPredictor
	s.metrics = newMetrics(m.Schema.NumClasses(), m.NumConcepts(), samplers{
		queueDepth: func() int64 { return int64(len(s.queue)) },
		live:       func() int64 { return int64(s.table.live()) },
		evicted:    s.table.evictedCount,
		activeProbs: func(emit func(session string, concept int, p float64)) {
			for _, sess := range s.table.list() {
				id := sess.ID()
				for c, p := range sess.activeProbs() {
					emit(id, c, p)
				}
			}
		},
		degraded: func() int64 {
			var n int64
			for _, sess := range s.table.list() {
				if sess.Degraded() {
					n++
				}
			}
			return n
		},
		faultFired: func(emit func(point string, fired int64)) {
			o.Fault.EachFired(func(p fault.Point, fired int64) {
				emit(p.String(), fired)
			})
		},
		tier: tierSampler(s, o),
	})
	// Per-session series die with the session, whether closed or evicted.
	s.table.onRemove = s.metrics.sessionClosed
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("create_session", s.handleCreateSession))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("list_sessions", s.handleListSessions))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("session_info", s.handleSessionInfo))
	s.mux.HandleFunc("GET /v1/sessions/{id}/state", s.instrument("session_state", s.handleSessionState))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("close_session", s.handleCloseSession))
	s.mux.HandleFunc("POST /v1/sessions/{id}/classify", s.instrument("classify", s.handleClassify))
	s.mux.HandleFunc("POST /v1/sessions/{id}/observe", s.instrument("observe", s.handleObserve))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Admin surface: session transfer and drain control, used by the
	// gateway (internal/gate) for live migration and replica removal.
	s.mux.HandleFunc("GET /admin/snapshot/{id}", s.instrument("admin_snapshot", s.handleAdminSnapshot))
	s.mux.HandleFunc("POST /admin/restore", s.instrument("admin_restore", s.handleAdminRestore))
	s.mux.HandleFunc("POST /admin/drain", s.instrument("admin_drain", s.handleAdminDrain))
	s.mux.HandleFunc("POST /admin/flightdump", s.handleFlightDump)
	if o.Fault != nil && o.Recorder != nil {
		// Every fired fault point requests a (rate-limited) flight dump,
		// so the ring around an injected incident is preserved.
		rec := o.Recorder
		o.Fault.SetObserver(func(p fault.Point) { rec.Trigger(faultReasons[p]) })
	}
	if o.Tier.enabled() {
		if err := s.openTier(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newPredictor builds one session predictor: the compiled twin when the
// model compiled, the interpreted core.Predictor otherwise. Every
// predictor construction site — session create, tier hydrate, crash
// recovery — funnels through here, so a server is uniformly compiled or
// uniformly interpreted.
func (s *Server) newPredictor(opts core.PredictorOptions) core.OnlinePredictor {
	if s.compiled != nil {
		return s.compiled.NewPredictor(opts)
	}
	return s.model.NewPredictorWithOptions(opts)
}

// Compiled reports whether sessions run on the ahead-of-time compiled
// model rather than the interpreted predictor.
func (s *Server) Compiled() bool { return s.compiled != nil }

// tierSampler builds the metrics sampler over the server's store, which
// is opened after the metric families are registered — the closure
// indirection (plus the nil guard) breaks the ordering cycle.
func tierSampler(s *Server, o Options) func() (int64, int64, int64, int64, int64) {
	if !o.Tier.enabled() {
		return nil
	}
	return func() (int64, int64, int64, int64, int64) {
		if s.store == nil {
			return 0, 0, 0, 0, 0
		}
		st := s.store.Stats()
		return st.Hot, st.Cold, st.Spills, st.Hydrates, st.WALReplayed
	}
}

// sessionSink composes the per-session switch counter with a
// flight-recorder instant, so a concept switch is both counted and visible
// on the trace of the observe batch that caused it. The sink runs inside
// Observe under the session lock, where curTC is the executing task's
// context.
func (s *Server) sessionSink(sess *Session) obs.PredictorSink {
	base := s.metrics.switchSink(sess.ID())
	rec := s.opts.Recorder
	if rec == nil {
		return base
	}
	return obs.FuncSink(func(ev obs.PredictorEvent) {
		base.ObserveEvent(ev)
		if ev.Switched {
			sp := rec.Start(sess.curTC, flightSwitch)
			sp.SetSession(sess.id)
			sp.SetArg(int64(ev.MAP))
			sp.End()
		}
	})
}

// handleFlightDump snapshots the flight recorder's ring on demand.
func (s *Server) handleFlightDump(w http.ResponseWriter, r *http.Request) {
	rec := s.opts.Recorder
	if rec == nil {
		s.writeError(w, http.StatusNotFound, "flight recorder not enabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = rec.WriteDump(w, "manual")
}

// Start launches the worker pool and the TTL janitor. Idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for i := 0; i < s.opts.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
		s.wg.Add(1)
		go s.janitor()
	})
}

// Close drains the queue and stops the workers. It must only be called
// once no new requests can arrive (after the HTTP server has shut down).
// Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.qmu.Lock()
		s.qclosed = true
		close(s.queue)
		s.qmu.Unlock()
		close(s.janitorEnd)
		s.wg.Wait()
		if s.store != nil {
			// Checkpoint after the last worker: every hot session is
			// snapshotted to its segment and the WAL truncated, so the next
			// start recovers from compact snapshots with an empty log.
			_ = s.store.Close()
		}
	})
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve starts the workers and serves HTTP on l until ctx is cancelled,
// then shuts down gracefully: the listener closes, in-flight requests
// drain through the queue, workers exit.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.Start()
	hs := &http.Server{Handler: s.mux}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(sctx)
	}()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		err = <-shutdownErr
	}
	s.Close()
	return err
}

// Model returns the served model (read-only by convention).
func (s *Server) Model() *core.Model { return s.model }

// SetDraining toggles drain mode: while draining the server answers new
// session creations (and admin restores) with 503 + Retry-After but keeps
// serving and flushing work for existing sessions. In-process equivalent
// of POST /admin/drain.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is refusing new sessions.
func (s *Server) Draining() bool { return s.draining.Load() }

// worker drains the queue until Close. Each wakeup takes one task and
// opportunistically up to MicroBatch-1 more without blocking, then runs
// same-session tasks under a single session-lock acquisition.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		batch := s.drainBatch(t)
		s.runBatch(batch)
	}
}

func (s *Server) drainBatch(first *task) []*task {
	batch := []*task{first}
	for len(batch) < s.opts.MicroBatch {
		select {
		case t, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// runBatch groups the drained tasks by session (stable, preserving queue
// order within a session) and executes each group under one lock.
func (s *Server) runBatch(batch []*task) {
	processed := make([]bool, len(batch))
	group := make([]*task, 0, len(batch))
	for i := range batch {
		if processed[i] {
			continue
		}
		sess := batch[i].sess
		group = group[:0]
		for j := i; j < len(batch); j++ {
			if !processed[j] && batch[j].sess == sess {
				processed[j] = true
				group = append(group, batch[j])
			}
		}
		s.runTasks(sess, group)
	}
}

// runTasks executes queued tasks for one session under one lock
// acquisition — the micro-batching fast path. With a tracer configured it
// records one span per task on the online hot path. Tasks whose deadline
// passed in the queue are answered expired before the predictor is
// touched, so a deadline 503 never leaves ambiguous state.
func (s *Server) runTasks(sess *Session, tasks []*task) {
	m, tr, rec := s.metrics, s.opts.Trace, s.opts.Recorder
	// With tiering, the session pointer bound at enqueue time may have
	// been spilled (its state moved to disk) while the tasks queued.
	// Mutating a spilled value would be silently lost on the next
	// hydration, so re-resolve through the table — which rehydrates —
	// until the value we hold the lock on is the live one. Bounded: under
	// pathological eviction pressure the tasks are refused retryably
	// rather than applied to a dead object, with the exhaustion counted
	// in hom_spill_retry_exhausted_total so hot-set thrash is visible to
	// operators rather than blending into other 503s.
	for attempt := 0; ; attempt++ {
		sess.mu.Lock()
		if sess.quarantined.Load() {
			sess.mu.Unlock()
			for _, t := range tasks {
				t.done <- taskResult{err: fmt.Errorf("session %q: %w", sess.id, errQuarantined)}
			}
			return
		}
		if !sess.spilled {
			break
		}
		sess.mu.Unlock()
		var fresh *Session
		var found bool
		if attempt < maxSpillResolves {
			fresh, found = s.table.get(sess.id)
		} else {
			m.spillRetryExhausted()
		}
		if !found {
			err := fmt.Errorf("session %q spilled mid-request (closed or under heavy eviction); retry", sess.id)
			for _, t := range tasks {
				t.done <- taskResult{err: err}
			}
			return
		}
		sess = fresh
	}
	quarantined := false
	for _, t := range tasks {
		var res taskResult
		if quarantined {
			// An earlier task in this batch diverged the session; nothing
			// further may trust or extend it.
			res.err = fmt.Errorf("session %q: %w", sess.id, errQuarantined)
			t.done <- res
			continue
		}
		if !t.deadline.IsZero() && s.clk().After(t.deadline) {
			res.expired = true
			m.deadlineExpired()
			// Capture the ring around the incident: the expired request's
			// own spans (recorded upstream on its trace) are still in it.
			rec.Instant(t.tc, flightDeadline, 0)
			rec.Trigger("deadline_expired")
			t.done <- res
			continue
		}
		sess.curTC = t.tc
		switch t.kind {
		case taskClassify:
			sp := tr.StartSpan("serve.classify")
			fsp := rec.Start(t.tc, flightClassify)
			res.classify = sess.classifyLocked(t.recs, t.withProba)
			sp.SetArg("records", int64(len(t.recs)))
			sp.End()
			fsp.SetSession(sess.ID())
			fsp.SetArg(int64(len(t.recs)))
			fsp.End()
			m.classified(res.classify.Predictions, res.classify.MAPConcept)
		case taskObserve:
			if d := s.opts.Fault.Delay(fault.LabelDelay); d > 0 {
				s.opts.Sleep.Sleep(d)
			}
			sp := tr.StartSpan("serve.observe")
			fsp := rec.Start(t.tc, flightObserve)
			res.observe = sess.observeLocked(t.recs, s.opts.Fault)
			sp.SetArg("records", int64(len(t.recs)))
			sp.End()
			fsp.SetSession(sess.ID())
			fsp.SetArg(int64(len(t.recs)))
			fsp.End()
			m.observed(res.observe.Applied)
			if s.store != nil && res.observe.Applied > 0 {
				// WAL-before-ack: the applied records are fsync'd to the
				// label log before the response is released. A crash after
				// this line loses nothing acknowledged; a crash before it
				// means the batch was never acked and the client retries.
				if err := s.logObserve(sess, t.recs, &res.observe); err != nil {
					if errors.Is(err, store.ErrInjectedCrash) {
						// The simulated process died mid-append: the batch
						// was never acknowledged, and the poisoned store
						// refuses every retry until restart — safe to
						// answer retryably.
						res.err = err
					} else {
						// Real WAL I/O failure: the batch is live in this
						// predictor but not durable. Inviting a retry
						// would double-apply it, so quarantine the session
						// — refuse it non-retryably and drop it (below,
						// after the lock is released).
						sess.quarantined.Store(true)
						quarantined = true
						m.sessionQuarantined()
						res.err = fmt.Errorf("session %q: %w (%v)", sess.id, errQuarantined, err)
					}
				}
			}
		}
		sess.curTC = obs.TraceContext{}
		t.done <- res
	}
	sess.mu.Unlock()
	if quarantined {
		// Drop the diverged session from both tiers (best-effort durable
		// tombstone): its memory absorbed a batch the log did not, so no
		// later request — or post-restart recovery — may serve it as if
		// the acknowledged and durable histories still agreed.
		s.table.remove(sess.id)
	}
}

// enqueue submits a task, reporting (accepted, serving). Not accepted +
// serving means the queue is full (backpressure); not serving means the
// server is draining.
func (s *Server) enqueue(t *task) (accepted, serving bool) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.qclosed {
		return false, false
	}
	if s.opts.Fault.Fire(fault.QueueOverflow) {
		// Injected saturation: report the queue full without enqueueing,
		// exercising the 429 backpressure path end to end.
		return false, true
	}
	select {
	case s.queue <- t:
		s.metrics.observeQueueDepth(len(s.queue))
		return true, true
	default:
		return false, true
	}
}

// submit queues predictor work and waits for the result. The wait is
// bounded: the queue is bounded, every queued task is executed, and tasks
// whose per-request deadline lapses in the queue are answered 503 without
// touching the predictor (retry-safe by construction).
func (s *Server) submit(t *task) (taskResult, int, error) {
	if d := s.opts.ShedDepth; d > 0 && len(s.queue) >= d {
		s.metrics.shed()
		s.opts.Recorder.Instant(t.tc, flightShed, int64(len(s.queue)))
		s.opts.Recorder.Trigger("shed")
		return taskResult{}, http.StatusServiceUnavailable,
			fmt.Errorf("overloaded: queue depth %d reached shed threshold %d", len(s.queue), d)
	}
	if s.opts.RequestTimeout > 0 {
		t.deadline = s.clk().Add(s.opts.RequestTimeout)
	}
	t.done = make(chan taskResult, 1)
	accepted, serving := s.enqueue(t)
	if !serving {
		return taskResult{}, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down")
	}
	if !accepted {
		s.metrics.reject()
		return taskResult{}, http.StatusTooManyRequests, fmt.Errorf("queue full (%d tasks)", s.opts.QueueDepth)
	}
	res := <-t.done
	if res.expired {
		return taskResult{}, http.StatusServiceUnavailable,
			fmt.Errorf("deadline exceeded: task waited longer than %v in queue (not executed)", s.opts.RequestTimeout)
	}
	if res.err != nil {
		if errors.Is(res.err, errQuarantined) {
			// Not a transient refusal: the batch was applied but not
			// durably logged, so a retry would double-apply it. 500
			// carries no Retry-After and the client treats it as final.
			return taskResult{}, http.StatusInternalServerError, res.err
		}
		return taskResult{}, http.StatusServiceUnavailable, res.err
	}
	return res, http.StatusOK, nil
}

// janitor sweeps expired sessions until Close.
func (s *Server) janitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.JanitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorEnd:
			return
		case <-ticker.C:
			s.table.sweep()
		}
	}
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting and latency tracking,
// plus the transport-level fault points. RequestDrop fires before the
// handler runs, so a dropped request provably had no effect — the client
// may retry it without risking a double-applied observe.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.clk()
		if s.opts.Fault.Fire(fault.RequestDrop) {
			s.dropConn(w)
			return
		}
		if d := s.opts.Fault.Delay(fault.ResponseDelay); d > 0 {
			s.opts.Sleep.Sleep(d)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.request(endpoint, sw.code, s.clk().Sub(start))
	}
}

// dropConn abruptly terminates the client connection (injected fault),
// producing a transport-level error on the client rather than an HTTP
// status. Non-hijackable transports fall back to a typed 503 so the
// request still terminates deterministically.
func (s *Server) dropConn(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			_ = conn.Close()
			return
		}
	}
	s.writeError(w, http.StatusServiceUnavailable, "fault injected: request dropped")
}

// maxBodyBytes bounds request bodies; a classify batch of a few thousand
// wide records fits comfortably.
const maxBodyBytes = 16 << 20

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client hanging up mid-response is not a server error
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	// Both backpressure answers carry a retry hint: 429 (queue full) and
	// 503 (shed, deadline lapsed, or draining) are transient by contract.
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
	}
	s.writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// isBinaryRequest reports whether the request body uses the binary codec
// (Content-Type: application/x-hom-records).
func isBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == BinaryContentType || strings.HasPrefix(ct, BinaryContentType+";")
}

// acceptsBinary reports whether the client asked for a binary response on
// a JSON request (Accept: application/x-hom-records). A binary request
// always gets a binary response regardless of Accept.
func acceptsBinary(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		if v == BinaryContentType || strings.HasPrefix(v, BinaryContentType+";") {
			return true
		}
	}
	return false
}

// readBinaryBody slurps a binary-codec request body under the same size
// cap as the JSON decoder. Errors are answered as JSON ErrorResponse —
// the error surface does not switch codecs.
func (s *Server) readBinaryBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return nil, false
	}
	return b, true
}

// writeBinary answers one pre-encoded binary frame.
func (s *Server) writeBinary(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", BinaryContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame) // the client hanging up mid-response is not a server error
}

// readJSONRequest reads a classify or observe JSON body into pooled
// scratch, under the same size cap as every other body, and decodes it
// with decode (decodeClassifyJSON or decodeObserveJSON).
func readJSONRequest[T any](s *Server, w http.ResponseWriter, r *http.Request, decode func([]byte, *jsonScratch) (T, error)) (T, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	sc := jsonScratchPool.Get().(*jsonScratch)
	defer sc.release()
	err := sc.readBody(r.Body, r.ContentLength)
	var req T
	if err == nil {
		req, err = decode(sc.body, sc)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return req, false
	}
	return req, true
}

// decodeBody strictly decodes the body as one JSON value into v: unknown
// fields and anything but whitespace after the value are refused. With
// emptyOK, an empty body leaves v at its zero value.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == io.EOF && emptyOK {
		return true
	}
	if err == nil {
		end := dec.InputOffset()
		if _, terr := dec.Token(); terr != io.EOF {
			err = fmt.Errorf("data after the JSON value ending at byte %d", end)
		}
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// session resolves the {id} path value, answering 404 when
// absent/expired and 500 for a quarantined session still awaiting
// removal (its live state diverged from the durable log; serving it
// would extend state a restart cannot reproduce).
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.table.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no session %q (closed, expired, or never created)", id)
		return nil, false
	}
	if sess.quarantined.Load() {
		s.writeError(w, http.StatusInternalServerError,
			"session %q quarantined: state diverged from the durable log; recreate it", id)
		return nil, false
	}
	return sess, true
}

// validSessionID bounds client-requested session ids: non-empty printable
// ASCII without path separators or spaces, at most 64 bytes, so ids embed
// safely in URL paths and metric label values.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '/' || c == '\\' || c == '"' {
			return false
		}
	}
	return true
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining: not accepting new sessions")
		return
	}
	var req CreateSessionRequest
	// An empty body, sized or chunked, selects the default options.
	if !s.decodeBody(w, r, &req, true) {
		return
	}
	if req.ID != "" && !validSessionID(req.ID) {
		s.writeError(w, http.StatusBadRequest, "invalid session id %q", req.ID)
		return
	}
	sess, err := s.table.create(core.PredictorOptions{
		MAPOnly:        req.MAPOnly,
		DisablePruning: req.DisablePruning,
	}, req.ID)
	if err != nil {
		if errors.Is(err, ErrSessionLimit) {
			s.writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		if errors.Is(err, ErrSessionExists) {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sess.setSink(s.sessionSink(sess))
	s.metrics.sessionCreated()
	s.writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID:       sess.ID(),
		Concepts: s.model.NumConcepts(),
		Classes:  append([]string(nil), s.model.Schema.Classes...),
	})
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.table.list()
	resp := ListSessionsResponse{Sessions: make([]SessionInfo, len(sessions))}
	for i, sess := range sessions {
		resp.Sessions[i] = sess.Info()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleSessionState(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, sess.State())
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.table.remove(id) {
		s.writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req ClassifyRequest
	binaryResp := acceptsBinary(r)
	if isBinaryRequest(r) {
		body, ok := s.readBinaryBody(w, r)
		if !ok {
			return
		}
		var derr error
		if req, derr = DecodeBinaryClassifyRequest(body); derr != nil {
			s.writeError(w, http.StatusBadRequest, "invalid request body: %v", derr)
			return
		}
		binaryResp = true
	} else if req, ok = readJSONRequest(s, w, r, decodeClassifyJSON); !ok {
		return
	}
	recs, err := decodeRecords(s.model.Schema, req.Records, nil)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tc := s.opts.Recorder.Adopt(r.Header.Get(obs.TraceHeader))
	res, code, err := s.submit(&task{kind: taskClassify, sess: sess, recs: recs, withProba: req.Proba, tc: tc})
	if err != nil {
		s.writeError(w, code, "%v", err)
		return
	}
	if binaryResp {
		frame, eerr := EncodeBinaryClassifyResponse(res.classify)
		if eerr != nil {
			s.writeError(w, http.StatusInternalServerError, "encode response: %v", eerr)
			return
		}
		s.writeBinary(w, frame)
		return
	}
	s.writeJSON(w, http.StatusOK, res.classify)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req ObserveRequest
	binaryResp := acceptsBinary(r)
	if isBinaryRequest(r) {
		body, ok := s.readBinaryBody(w, r)
		if !ok {
			return
		}
		var derr error
		if req, derr = DecodeBinaryObserveRequest(body); derr != nil {
			s.writeError(w, http.StatusBadRequest, "invalid request body: %v", derr)
			return
		}
		binaryResp = true
	} else if req, ok = readJSONRequest(s, w, r, decodeObserveJSON); !ok {
		return
	}
	recs, err := decodeRecords(s.model.Schema, req.Records, req.Classes)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tc := s.opts.Recorder.Adopt(r.Header.Get(obs.TraceHeader))
	res, code, err := s.submit(&task{kind: taskObserve, sess: sess, recs: recs, tc: tc})
	if err != nil {
		s.writeError(w, code, "%v", err)
		return
	}
	if binaryResp {
		s.writeBinary(w, EncodeBinaryObserveResponse(res.observe))
		return
	}
	s.writeJSON(w, http.StatusOK, res.observe)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.writeTo(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:   status,
		Sessions: s.table.live(),
		Concepts: s.model.NumConcepts(),
		Draining: s.draining.Load(),
	})
}

// handleAdminSnapshot renders the session's transferable snapshot
// (SessionSnapshot). With ?remove=true the session is atomically dropped
// from the table after the state is captured, so exactly one live copy of
// the session exists at every instant of a migration: here until the
// response is written, then only in the snapshot the caller holds. The
// caller owns the drain contract — it must stop routing the session's
// traffic to this replica first (the gateway parks requests before
// pulling); a request racing the removal is answered 404 and is safe to
// retry against the session's new owner.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	opts := sess.Options()
	snap := SessionSnapshot{
		ID:      sess.ID(),
		Options: SessionOptions{MAPOnly: opts.MAPOnly, DisablePruning: opts.DisablePruning},
		State:   sess.State(),
	}
	if r.URL.Query().Get("remove") == "true" {
		s.table.remove(sess.ID())
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// handleAdminRestore creates a session under the snapshot's id and
// overwrites its predictor state from the snapshot — the receiving half of
// a live migration. Refused while draining (a replica being removed must
// not accept inbound migrations) and with 409 when the id is already live
// (dual-ownership guard).
func (s *Server) handleAdminRestore(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining: not accepting restored sessions")
		return
	}
	var snap SessionSnapshot
	if !s.decodeBody(w, r, &snap, false) {
		return
	}
	if !validSessionID(snap.ID) {
		s.writeError(w, http.StatusBadRequest, "invalid session id %q", snap.ID)
		return
	}
	sess, err := s.table.create(core.PredictorOptions{
		MAPOnly:        snap.Options.MAPOnly,
		DisablePruning: snap.Options.DisablePruning,
	}, snap.ID)
	if err != nil {
		switch {
		case errors.Is(err, ErrSessionExists):
			s.writeError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, ErrSessionLimit):
			s.writeError(w, http.StatusTooManyRequests, "%v", err)
		default:
			s.writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if err := sess.RestoreState(snap.State); err != nil {
		// The fresh session never served traffic; drop it so a bad
		// snapshot leaves no half-restored state behind.
		s.table.remove(sess.ID())
		s.writeError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	if s.store != nil {
		// The WAL create logged at table.create carries only the options —
		// the restored predictor state needs a durable snapshot, or a crash
		// after the 200 would resurrect the session empty.
		if err := s.store.Persist(sess.ID()); err != nil {
			s.table.remove(sess.ID())
			s.writeError(w, http.StatusInternalServerError, "persist restored session: %v", err)
			return
		}
	}
	sess.setSink(s.sessionSink(sess))
	s.metrics.sessionCreated()
	s.writeJSON(w, http.StatusOK, sess.Info())
}

// handleAdminDrain toggles drain mode (see SetDraining).
func (s *Server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !s.decodeBody(w, r, &req, false) {
		return
	}
	s.draining.Store(req.Draining)
	s.writeJSON(w, http.StatusOK, DrainResponse{
		Draining: s.draining.Load(),
		Sessions: s.table.live(),
	})
}
