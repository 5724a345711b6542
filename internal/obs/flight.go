// Flight recorder: the repository's one span system.
//
// Every traced process records into a Recorder: fleet processes trace
// requests across hops, and the offline build (core.Build) records its
// phases under one forced root span, which Summarize (summary.go) folds
// into per-phase totals. The Recorder is a fixed-size ring of power-of-two
// slots, sharded to spread writer contention, written with nothing but
// atomic stores (no locks anywhere on the write path) and sampled
// head-based from a seed, so the per-request cost is a handful of atomic
// operations on sampled traces and zero allocations on the disabled and
// unsampled paths (enforced by TestFlight*Allocs and the verify.sh
// alloc-ceiling gate).
//
// Context propagation: a request's trace identity travels between fleet
// processes in the X-Hom-Trace header as
//
//	<16-hex trace id>-<16-hex parent span id>-<flag>
//
// where flag is 1 when the head sampled the trace. The sampling decision is
// made once, where the trace starts (head-based), and carried in the flag:
// a sampled trace records on every hop, and an unsampled one costs nothing
// anywhere — the unsampled path injects no header at all, so downstream
// processes treat the request as a fresh head and apply their own sampling
// to it (bounded, self-contained server-side traces; documented in
// DESIGN.md).
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
)

// TraceHeader is the HTTP header carrying trace context across fleet hops.
const TraceHeader = "X-Hom-Trace"

// TraceContext is one request's trace identity: the trace it belongs to,
// the span that is its parent on this hop, and the head's sampling
// decision. The zero value is "no trace" and makes every recording call a
// no-op.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// Valid reports whether the context names a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// headerLen is len("%016x-%016x-%c").
const headerLen = 16 + 1 + 16 + 1 + 1

const hexDigits = "0123456789abcdef"

// putHex16 writes v as 16 lowercase hex digits into b.
func putHex16(b []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// hex16 renders v as a 16-digit hex string (dump ids).
func hex16(v uint64) string {
	var b [16]byte
	putHex16(b[:], v)
	return string(b[:])
}

// HeaderValue renders the context as an X-Hom-Trace value. Only called on
// the sampled path (callers skip injection for unsampled contexts), so the
// one string allocation here is paid only by traces that record anyway.
func (tc TraceContext) HeaderValue() string {
	var b [headerLen]byte
	putHex16(b[0:16], tc.TraceID)
	b[16] = '-'
	putHex16(b[17:33], tc.SpanID)
	b[33] = '-'
	if tc.Sampled {
		b[34] = '1'
	} else {
		b[34] = '0'
	}
	return string(b[:])
}

// parseHex16 parses exactly 16 lowercase/uppercase hex digits.
func parseHex16(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// ParseTraceContext parses an X-Hom-Trace value. It is strict (fixed
// length, fixed separators) and allocation-free, so handlers can call it on
// every request.
func ParseTraceContext(s string) (TraceContext, bool) {
	if len(s) != headerLen || s[16] != '-' || s[33] != '-' {
		return TraceContext{}, false
	}
	trace, ok := parseHex16(s[0:16])
	if !ok || trace == 0 {
		return TraceContext{}, false
	}
	span, ok := parseHex16(s[17:33])
	if !ok {
		return TraceContext{}, false
	}
	switch s[34] {
	case '1':
		return TraceContext{TraceID: trace, SpanID: span, Sampled: true}, true
	case '0':
		return TraceContext{TraceID: trace, SpanID: span, Sampled: false}, true
	}
	return TraceContext{}, false
}

// NameID is an interned span name. Names are interned once at package init
// (var blocks in internal/serve, internal/gate, ...), so recording a span
// stores a uint32 instead of a string header.
type NameID uint32

// nameTab is the global intern table. Writes take the mutex; readers
// (Snapshot) load the copy-on-write list without locking.
var nameTab struct {
	mu     sync.Mutex
	byName map[string]NameID
	list   atomic.Pointer[[]string]
}

// InternName registers a span name and returns its id. Idempotent; safe
// for concurrent use; meant for package-level var initialization, not hot
// paths.
func InternName(name string) NameID {
	nameTab.mu.Lock()
	defer nameTab.mu.Unlock()
	if nameTab.byName == nil {
		nameTab.byName = make(map[string]NameID)
	}
	if id, ok := nameTab.byName[name]; ok {
		return id
	}
	var cur []string
	if p := nameTab.list.Load(); p != nil {
		cur = *p
	}
	next := make([]string, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = name
	nameTab.list.Store(&next)
	id := NameID(len(next)) // ids start at 1; 0 means "unknown"
	nameTab.byName[name] = id
	return id
}

// SpanName returns the interned string for id ("?" for unknown ids).
func SpanName(id NameID) string {
	p := nameTab.list.Load()
	if p == nil || id == 0 || int(id) > len(*p) {
		return "?"
	}
	return (*p)[id-1]
}

// FlightConfig tunes a Recorder. The zero value (plus a Proc name) is
// usable.
type FlightConfig struct {
	// Proc names the process in dumps (replica id, "gate", "client").
	Proc string
	// Slots is the total ring capacity across shards; rounded up so each
	// shard holds a power of two. <= 0 selects 4096.
	Slots int
	// Shards spreads writer contention; rounded up to a power of two,
	// <= 0 selects 8.
	Shards int
	// SampleOneIn keeps ~1 in N new head traces (deterministic in Seed and
	// the trace id, not random). 0 or 1 records every trace.
	SampleOneIn uint64
	// Seed drives trace/span id allocation and the sampling hash, so two
	// runs from one seed sample the same head sequence.
	Seed int64
	// Clock supplies span timestamps; nil selects the wall clock. Fleet
	// tests share one fake clock across recorders, which is what makes the
	// homtrace merge skew-free in CI.
	Clock clock.Clock
	// TriggerMin rate-limits automatic dumps (Trigger); <= 0 selects 1s.
	TriggerMin time.Duration
}

// flightSlot is one recorded span. Every field is atomic so concurrent
// lapped writers and snapshot readers stay race-free by construction; ver
// is bumped to odd before the fields are stored and to even after, so a
// reader that sees ver change (or odd) discards the slot as torn.
type flightSlot struct {
	ver     atomic.Uint64
	traceID atomic.Uint64
	spanID  atomic.Uint64
	parent  atomic.Uint64
	name    atomic.Uint32
	start   atomic.Int64 // UnixNano
	dur     atomic.Int64 // nanoseconds
	arg     atomic.Int64
	sess    atomic.Pointer[string]
}

// flightShard is one independently cursored slice of the ring.
type flightShard struct {
	cursor atomic.Uint64
	_      [56]byte // keep neighboring cursors off one cache line
	slots  []flightSlot
	mask   uint64
}

// Recorder is the flight recorder. All methods are safe on a nil receiver
// (recording disabled, zero cost) and safe for concurrent use.
type Recorder struct {
	proc        string
	clk         clock.Clock
	salt        uint64
	sampleSalt  uint64
	sampleOneIn uint64
	shardMask   uint64
	shards      []flightShard
	seq         atomic.Uint64

	triggerMin  int64 // ns
	lastTrigger atomic.Int64
	lastAuto    atomic.Pointer[FlightDump]
	onTrigger   atomic.Pointer[func(FlightDump)]
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// hashString is FNV-1a, used to salt ids with the process name so two
// fleet members started from one seed still allocate distinct ids.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// flightMix is the splitmix64 finalizer (same mixer as internal/fault).
func flightMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg FlightConfig) *Recorder {
	slots := cfg.Slots
	if slots <= 0 {
		slots = 4096
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 8
	}
	shards = nextPow2(shards)
	perShard := nextPow2((slots + shards - 1) / shards)
	r := &Recorder{
		proc:        cfg.Proc,
		clk:         cfg.Clock.OrWall(),
		salt:        flightMix(uint64(cfg.Seed)) ^ hashString(cfg.Proc),
		sampleSalt:  flightMix(uint64(cfg.Seed) ^ 0xf11e57),
		sampleOneIn: cfg.SampleOneIn,
		shardMask:   uint64(shards - 1),
		shards:      make([]flightShard, shards),
		triggerMin:  int64(time.Second),
	}
	if cfg.TriggerMin > 0 {
		r.triggerMin = int64(cfg.TriggerMin)
	}
	for i := range r.shards {
		r.shards[i].slots = make([]flightSlot, perShard)
		r.shards[i].mask = uint64(perShard - 1)
	}
	return r
}

// Proc returns the recorder's process name.
func (r *Recorder) Proc() string {
	if r == nil {
		return ""
	}
	return r.proc
}

// nextID allocates a fleet-unique nonzero id.
func (r *Recorder) nextID() uint64 {
	id := flightMix(r.salt + r.seq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// sampled is the head sampling decision: a pure function of (seed, trace
// id), so a run replays the same sampled set and two processes agree about
// a shared trace without coordination.
func (r *Recorder) sampled(traceID uint64) bool {
	if r.sampleOneIn <= 1 {
		return true
	}
	return flightMix(traceID^r.sampleSalt)%r.sampleOneIn == 0
}

// StartTrace allocates a fresh head context, deciding once whether the
// whole trace records. nil receiver: zero context, no cost.
func (r *Recorder) StartTrace() TraceContext {
	if r == nil {
		return TraceContext{}
	}
	id := r.nextID()
	return TraceContext{TraceID: id, Sampled: r.sampled(id)}
}

// ForceTrace allocates a head context that bypasses sampling — for rare
// loss/fault events that must be captured regardless of the sample rate.
func (r *Recorder) ForceTrace() TraceContext {
	if r == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: r.nextID(), Sampled: true}
}

// Adopt returns the context carried by an inbound X-Hom-Trace value, or —
// when the header is absent or malformed — a fresh head context: this
// process becomes the trace's head.
func (r *Recorder) Adopt(header string) TraceContext {
	if r == nil {
		return TraceContext{}
	}
	if tc, ok := ParseTraceContext(header); ok {
		return tc
	}
	return r.StartTrace()
}

// FlightSpan is one in-progress span. It is a plain value — nothing is
// allocated or written to the ring until End — and the zero value (from a
// nil recorder or an unsampled context) makes every method a no-op.
type FlightSpan struct {
	rec     *Recorder
	traceID uint64
	spanID  uint64
	parent  uint64
	name    NameID
	startNs int64
	arg     int64
	sess    *string
}

// Start opens a span under tc. Unsampled or invalid contexts return the
// zero span at zero cost.
func (r *Recorder) Start(tc TraceContext, name NameID) FlightSpan {
	if r == nil || !tc.Sampled || tc.TraceID == 0 {
		return FlightSpan{}
	}
	return FlightSpan{
		rec:     r,
		traceID: tc.TraceID,
		spanID:  r.nextID(),
		parent:  tc.SpanID,
		name:    name,
		startNs: r.clk().UnixNano(),
	}
}

// Instant records a zero-duration marker span under tc.
func (r *Recorder) Instant(tc TraceContext, name NameID, arg int64) {
	if r == nil || !tc.Sampled || tc.TraceID == 0 {
		return
	}
	s := r.Start(tc, name)
	s.arg = arg
	s.End()
}

// Child opens a span under this one. Zero span: zero child.
func (s FlightSpan) Child(name NameID) FlightSpan {
	return s.rec.Start(s.Context(), name)
}

// Instant records a zero-duration child span carrying arg — how a span
// reports counts beyond its own one arg. Zero span: no-op.
func (s FlightSpan) Instant(name NameID, arg int64) {
	s.rec.Instant(s.Context(), name, arg)
}

// Context returns the context for child work of this span (same trace,
// this span as parent). Zero span: zero context.
func (s FlightSpan) Context() TraceContext {
	if s.rec == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: true}
}

// Recording reports whether the span will be written at End.
func (s FlightSpan) Recording() bool { return s.rec != nil }

// SetArg attaches one integer payload (batch size, lost count, ...).
func (s *FlightSpan) SetArg(v int64) {
	if s.rec != nil {
		s.arg = v
	}
}

// SetSession labels the span with a session id. The pointer allocation is
// paid only on the sampled path.
func (s *FlightSpan) SetSession(id string) {
	if s.rec != nil {
		v := id // copy inside the guard: a zero span pays no prologue alloc
		s.sess = &v
	}
}

// End closes the span and writes it into the ring. Idempotent; a zero span
// is a no-op.
func (s *FlightSpan) End() {
	if s.rec == nil {
		return
	}
	r := s.rec
	s.rec = nil
	dur := r.clk().UnixNano() - s.startNs
	if dur < 0 {
		dur = 0
	}
	sh := &r.shards[s.spanID&r.shardMask]
	sl := &sh.slots[(sh.cursor.Add(1)-1)&sh.mask]
	sl.ver.Add(1) // odd: write in progress
	sl.traceID.Store(s.traceID)
	sl.spanID.Store(s.spanID)
	sl.parent.Store(s.parent)
	sl.name.Store(uint32(s.name))
	sl.start.Store(s.startNs)
	sl.dur.Store(dur)
	sl.arg.Store(s.arg)
	sl.sess.Store(s.sess)
	sl.ver.Add(1) // even: stable
}

// FlightSpanRecord is one dumped span. Ids render as 16-digit hex so dumps
// diff and grep cleanly; timestamps are absolute UnixNano so homtrace can
// merge dumps from different processes onto one timeline.
type FlightSpanRecord struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Arg     int64  `json:"arg,omitempty"`
}

// FlightDump is one process's snapshot of its ring — the unit homtrace
// merges. Overwritten counts the spans the ring lost to lapping before
// the snapshot: a dump with Overwritten > 0 holds only the most recent
// spans.
type FlightDump struct {
	Proc        string             `json:"proc"`
	Reason      string             `json:"reason,omitempty"`
	CapturedNS  int64              `json:"captured_ns"`
	Overwritten uint64             `json:"overwritten"`
	Spans       []FlightSpanRecord `json:"spans"`
}

// Snapshot reads every stable slot of the ring into a dump, discarding
// slots a concurrent writer tore (version changed under the read). Spans
// sort by start time then span id, so dumps are deterministic for a fixed
// ring state.
func (r *Recorder) Snapshot(reason string) FlightDump {
	if r == nil {
		return FlightDump{}
	}
	d := FlightDump{Proc: r.proc, Reason: reason, CapturedNS: r.clk().UnixNano()}
	for si := range r.shards {
		sh := &r.shards[si]
		if n, size := sh.cursor.Load(), uint64(len(sh.slots)); n > size {
			d.Overwritten += n - size
		}
		for i := range sh.slots {
			sl := &sh.slots[i]
			v := sl.ver.Load()
			if v == 0 || v&1 == 1 {
				continue
			}
			rec := FlightSpanRecord{
				Trace:   hex16(sl.traceID.Load()),
				Span:    hex16(sl.spanID.Load()),
				Name:    SpanName(NameID(sl.name.Load())),
				StartNS: sl.start.Load(),
				DurNS:   sl.dur.Load(),
				Arg:     sl.arg.Load(),
			}
			if p := sl.parent.Load(); p != 0 {
				rec.Parent = hex16(p)
			}
			if sp := sl.sess.Load(); sp != nil {
				rec.Session = *sp
			}
			if sl.ver.Load() != v {
				continue // torn by a lapping writer
			}
			d.Spans = append(d.Spans, rec)
		}
	}
	sort.Slice(d.Spans, func(i, j int) bool {
		if d.Spans[i].StartNS != d.Spans[j].StartNS {
			return d.Spans[i].StartNS < d.Spans[j].StartNS
		}
		return d.Spans[i].Span < d.Spans[j].Span
	})
	return d
}

// WriteDump writes the snapshot as JSON (the POST /admin/flightdump body
// and the homtrace input format).
func (r *Recorder) WriteDump(w io.Writer, reason string) error {
	d := r.Snapshot(reason)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// OnTrigger installs the automatic-dump hook (e.g. write a file to the
// flight directory). Safe to call concurrently with Trigger.
func (r *Recorder) OnTrigger(fn func(FlightDump)) {
	if r == nil {
		return
	}
	r.onTrigger.Store(&fn)
}

// Trigger requests an automatic dump for a notable event (deadline expiry,
// shed, lost sessions, a fired fault point). Dumps are rate-limited to one
// per TriggerMin so a fault storm cannot melt the process; the most recent
// dump is retained for LastTriggered and handed to the OnTrigger hook.
func (r *Recorder) Trigger(reason string) {
	if r == nil {
		return
	}
	now := r.clk().UnixNano()
	for {
		last := r.lastTrigger.Load()
		if last != 0 && now-last < r.triggerMin {
			return
		}
		if r.lastTrigger.CompareAndSwap(last, now) {
			break
		}
	}
	d := r.Snapshot(reason)
	r.lastAuto.Store(&d)
	if fn := r.onTrigger.Load(); fn != nil {
		(*fn)(d)
	}
}

// LastTriggered returns the most recent automatic dump, or nil.
func (r *Recorder) LastTriggered() *FlightDump {
	if r == nil {
		return nil
	}
	return r.lastAuto.Load()
}
