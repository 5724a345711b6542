package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
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

// ErrSessionLimit is returned by the session table when creating a session
// would exceed the configured maximum.
var ErrSessionLimit = errors.New("serve: session limit reached")

// ErrSessionExists is returned when creating a session under a requested id
// that is already live (the gateway's one-id-one-owner invariant).
var ErrSessionExists = errors.New("serve: session id already exists")

// Session owns one core.Predictor and the lock that serializes access to
// it. The predictor's active probabilities are per-client-stream state
// (§III-B): every client stream gets its own session, and all predictor
// calls — from HTTP workers, the replay helper, or introspection — go
// through the session's methods, which hold the lock for the duration of
// the call. This is the single place the Predictor's documented
// single-goroutine contract is enforced.
type Session struct {
	id string
	// opts records the predictor configuration the session was created
	// with, so a migration snapshot can rebuild an identical predictor on
	// another replica. Immutable after creation.
	opts core.PredictorOptions

	mu sync.Mutex
	// p evaluates its concepts from the server's compiled tables in a
	// served session and with the model's own classifiers in a local one;
	// the two answer bit-identically (internal/compiled's golden suite).
	p *core.Predictor
	// curTC is the trace context of the task currently executing under
	// mu, so predictor sink events (concept switches) fired inside
	// observeLocked attach to the request's trace. Written and read only
	// under mu.
	curTC obs.TraceContext
	// spilled marks a value that has left the store's hot set: its state
	// lives on disk now (or, in a memory-only store, is gone), and
	// mutating this object would be silently lost. Holders of a stale
	// pointer must check it under mu and re-resolve through the table (see
	// Server.runTask).
	spilled bool

	// lastUsed is the unix-nano timestamp of the last table access, read
	// by TTL eviction without taking mu.
	lastUsed atomic.Int64

	// degraded marks the session as serving from last-good state: at
	// least one labeled record of its most recent observe batch was lost
	// (fault-injected label loss), so the active probabilities lag the
	// client's view of the stream. A fully applied observe batch clears
	// it. Read lock-free by the hom_degraded_sessions collector.
	degraded atomic.Bool

	// quarantined marks a session whose in-memory predictor absorbed an
	// observe batch the write-ahead log could not durably record (a real
	// WAL I/O failure, not an injected crash): its live state has
	// diverged from what a restart would recover, and a retry of the
	// failed batch would double-apply it. Quarantined sessions are
	// refused non-retryably and removed (see Server.runTask).
	quarantined atomic.Bool
}

// NewLocalSession wraps a predictor for in-process use — cmd/hompredict's
// file replay and the offline halves of the e2e tests go through the same
// Session code path as served traffic.
func NewLocalSession(p *core.Predictor) *Session {
	return &Session{id: "local", p: p}
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Options returns the predictor options the session was created with.
func (s *Session) Options() core.PredictorOptions { return s.opts }

// Classify predicts every record in recs (labels ignored), in order, and
// reports the posterior-MAP concept at the time of the call.
func (s *Session) Classify(recs []data.Record, withProba bool) ClassifyResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.classifyLocked(recs, withProba)
}

// classifyLocked is Classify with s.mu already held — the server's
// runTask calls it under the lock it took after re-resolving a spilled
// session and checking the request's deadline.
//
//homlint:hotpath -- per-record serve classify loop
func (s *Session) classifyLocked(recs []data.Record, withProba bool) ClassifyResponse {
	out := ClassifyResponse{Predictions: make([]int, len(recs))}
	out.MAPConcept, _ = s.p.CurrentConcept()
	if !withProba {
		// One zero-allocation pass over the whole batch; ClassifyBatch
		// ignores record labels, as the loop below does.
		s.p.ClassifyBatch(recs, out.Predictions)
		return out
	}
	out.Probabilities = make([][]float64, len(recs))
	for i, r := range recs {
		x := data.Record{Values: r.Values}
		// PredictProba reuses its buffer; copy per record.
		dist := s.p.PredictProba(x)
		out.Probabilities[i] = append([]float64(nil), dist...)
		out.Predictions[i] = s.p.Predict(x)
	}
	return out
}

// Observe folds the labeled records into the session's active
// probabilities, in order.
func (s *Session) Observe(recs []data.Record) ObserveResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observeLocked(recs, nil)
}

// observeLocked is Observe with s.mu already held (see classifyLocked).
// With a fault injector installed, each record passes the LabelLoss point
// before reaching the predictor: dropped records are reported by index in
// the response and never touch the posterior, so the session keeps
// answering from its last-good state (degraded mode) rather than from a
// partially corrupted one. The response's Applied/Dropped bookkeeping is
// what lets a client reconstruct the exact applied record sequence for
// bit-identical offline replay.
func (s *Session) observeLocked(recs []data.Record, inj *fault.Injector) ObserveResponse {
	var dropped []int
	for i, r := range recs {
		if inj.Fire(fault.LabelLoss) {
			dropped = append(dropped, i)
			continue
		}
		s.p.Observe(r)
	}
	s.degraded.Store(len(dropped) > 0)
	rate, full := s.p.RecentExplainedRate()
	return ObserveResponse{
		Observed:      s.p.Observed(),
		ExplainedRate: rate,
		ExplainedFull: full,
		Applied:       len(recs) - len(dropped),
		Dropped:       dropped,
		Degraded:      len(dropped) > 0,
	}
}

// Degraded reports whether the session's last observe batch lost labels
// to fault injection (answers come from last-good active probabilities).
func (s *Session) Degraded() bool { return s.degraded.Load() }

// Info returns the introspection view of the session.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	concept, prob := s.p.CurrentConcept()
	rate, full := s.p.RecentExplainedRate()
	return SessionInfo{
		ID:                 s.id,
		Observed:           s.p.Observed(),
		Active:             s.p.ActiveProbabilities(),
		CurrentConcept:     concept,
		CurrentProbability: prob,
		ExplainedRate:      rate,
		ExplainedFull:      full,
		Degraded:           s.degraded.Load(),
	}
}

// State snapshots the session's predictor (core.PredictorState).
func (s *Session) State() core.PredictorState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Snapshot()
}

// RestoreState overwrites the predictor's online state from a snapshot.
func (s *Session) RestoreState(st core.PredictorState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Restore(st)
}

// setSink attaches a predictor introspection sink (per-session switch
// counting). The sink runs inside Observe under s.mu, so it follows the
// predictor's single-goroutine contract automatically.
func (s *Session) setSink(sink obs.PredictorSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.SetSink(sink)
}

// activeProbs returns the predictor's active-probability vector, for the
// hom_active_prob scrape-time collector.
func (s *Session) activeProbs() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.ActiveProbabilities()
}

// touch records an access at time t for TTL accounting.
func (s *Session) touch(t time.Time) { s.lastUsed.Store(t.UnixNano()) }

// markSpilled flags the value as demoted from the hot tier. Called from
// the store's Seal callback — under store locks, strictly before the
// spill snapshot is taken, so an observe batch racing the spill either
// completes first (markSpilled blocks on s.mu until it does, and the
// snapshot then captures it) or finds the flag set and re-resolves
// through the table. Taking s.mu here follows the store.mu -> session.mu
// lock order used everywhere else.
func (s *Session) markSpilled() {
	s.mu.Lock()
	s.spilled = true
	s.mu.Unlock()
}

// clearSpilled reverses markSpilled when a spill aborts after sealing
// (the store's Unseal callback): the session stays hot and must accept
// observes again.
func (s *Session) clearSpilled() {
	s.mu.Lock()
	s.spilled = false
	s.mu.Unlock()
}

// sessionTable maps session ids to live sessions, enforcing the session
// limit and TTL eviction. Ids are sequential ("s1", "s2", ...): the table
// is process-local state over a deterministic model, and predictable ids
// keep tests and traces readable.
//
// A store.Store holds the sessions. It owns the id space, and lookups
// hydrate cold sessions transparently. The TTL rule is one: an expired
// session is spilled, and the store decides what that means — a tiered
// store demotes it to disk, a memory-only store discards it.
type sessionTable struct {
	clk   clock.Clock
	ttl   time.Duration
	max   int
	model *compiled.Model
	str   *store.Store[*Session]

	// mu serializes creates, so the limit check, the id choice, and the
	// Put are one step.
	mu      sync.Mutex
	nextID  int64
	evicted atomic.Int64

	// onRemove is called with the id of every explicitly closed session,
	// so its per-session metric series can be dropped with it; onHydrate
	// runs on every session rebuilt from the cold tier (sink reattachment).
	// Both are set before the table is shared.
	onRemove  func(id string)
	onHydrate func(*Session)
}

// newSession builds a fresh session over the compiled model — the one
// constructor behind create, hydration, and crash recovery.
func (t *sessionTable) newSession(id string, opts core.PredictorOptions) *Session {
	s := &Session{id: id, opts: opts, p: t.model.NewPredictor(opts)}
	s.touch(t.clk())
	return s
}

// create opens a new session. Only a create the limit would refuse
// spills expired sessions first, so a full table of idle sessions does
// not refuse live clients; below the limit the janitor owns expiry, so a
// create does not walk the hot set. A non-empty
// id requests that exact session id (the gateway's cross-replica
// namespace); an empty id selects the next sequential server-local one,
// skipping ids recovered from disk. Creating an id that is already live
// fails with ErrSessionExists. The create blob (the session's options) is
// WAL-logged before the caller sees the id, so an acknowledged create can
// be rebuilt after a crash even if the session never spilled.
func (t *sessionTable) create(opts core.PredictorOptions, id string) (*Session, error) {
	blob, err := json.Marshal(SessionOptions{MAPOnly: opts.MAPOnly, DisablePruning: opts.DisablePruning})
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.str.Count(); t.max > 0 && n >= t.max {
		t.sweep()
		if n = t.str.Count(); n >= t.max {
			return nil, fmt.Errorf("%w (%d live)", ErrSessionLimit, n)
		}
	}
	requested := id != ""
	for {
		if !requested {
			t.nextID++
			id = fmt.Sprintf("s%d", t.nextID)
		}
		s := t.newSession(id, opts)
		switch err := t.str.Put(id, blob, s); {
		case err == nil:
			return s, nil
		case errors.Is(err, store.ErrExists):
			if requested {
				return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
			}
			// A recovered cold session holds this sequential id; try the next.
		default:
			return nil, err
		}
	}
}

// get looks up a session and refreshes its TTL; a cold id hydrates
// transparently. A session found expired is spilled and looked up again:
// a tiered store rehydrates it from the state it was demoted with, so a
// revisit never loses predictor state, and a memory-only store has
// dropped it.
func (t *sessionTable) get(id string) (*Session, bool) {
	now := t.clk()
	sess, ok := t.lookup(id)
	if ok && t.expired(sess, now) {
		t.spill(id)
		sess, ok = t.lookup(id)
	}
	if ok {
		sess.touch(now)
	}
	return sess, ok
}

// lookup resolves id through the store, reattaching the sink of a
// session it hydrated.
func (t *sessionTable) lookup(id string) (*Session, bool) {
	sess, ok, hydrated, err := t.str.Get(id)
	if err != nil || !ok {
		return nil, false
	}
	if hydrated && t.onHydrate != nil {
		t.onHydrate(sess)
	}
	return sess, true
}

// remove closes a session explicitly, across both tiers with a durable
// tombstone, so a closed (or migrated-away) session cannot resurrect from
// disk after a restart.
func (t *sessionTable) remove(id string) bool {
	existed, _ := t.str.Remove(id)
	if existed && t.onRemove != nil {
		t.onRemove(id)
	}
	return existed
}

// sweep spills every expired hot session and returns how many it spilled.
func (t *sessionTable) sweep() int {
	if t.ttl <= 0 {
		return 0
	}
	now := t.clk()
	var idle []string
	t.str.EachHot(func(id string, s *Session) bool {
		if t.expired(s, now) {
			idle = append(idle, id)
		}
		return true
	})
	n := 0
	for _, id := range idle {
		if t.spill(id) {
			n++
		}
	}
	return n
}

// spill applies the TTL rule to one session and counts the eviction.
// ErrNotFound just means the session moved (request traffic or the clock
// hand beat us to it) — nothing to spill.
func (t *sessionTable) spill(id string) bool {
	if err := t.str.Spill(id); err != nil {
		return false
	}
	t.evicted.Add(1)
	return true
}

func (t *sessionTable) expired(s *Session, now time.Time) bool {
	return t.ttl > 0 && now.UnixNano()-s.lastUsed.Load() > int64(t.ttl)
}

// live returns the live session count: the population across both tiers.
func (t *sessionTable) live() int { return t.str.Count() }

// evictedCount returns the total number of TTL evictions.
func (t *sessionTable) evictedCount() int64 { return t.evicted.Load() }

// list returns the hot sessions sorted by id — with a memory-only store,
// every session. Cold sessions exist as bytes on disk and cannot be
// introspected without hydrating them, which a read-only listing must
// not force.
func (t *sessionTable) list() []*Session {
	var out []*Session
	t.str.EachHot(func(id string, s *Session) bool {
		out = append(out, s)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return sessionLess(out[i].id, out[j].id) })
	return out
}

// sessionLess orders "s<N>" ids numerically, falling back to string order.
func sessionLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}
