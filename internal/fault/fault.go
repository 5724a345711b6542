// Package fault is the repository's seeded, deterministic fault-injection
// layer. It exists so the serving stack can be exercised under adversity —
// dropped connections, delayed responses, queue saturation, lost or late
// labels, corrupted model bytes, clock skew — with fault schedules that
// replay bit-identically from a seed, the same reproducibility contract
// the rest of the module holds for its learning pipeline.
//
// Production code reaches the layer through a nil-default hook with the
// same contract discipline as core.Predictor.SetSink and obs.Recorder: a nil
// *Injector disables every fault point at the cost of one pointer check
// and zero allocations (see BenchmarkNilInjectorFire and
// TestNilInjectorZeroAllocs), so the hooks can live permanently on hot
// paths in internal/serve and internal/dataio.
//
// Determinism model: every fault decision is a pure function of
// (seed, point, n) where n is the per-point invocation index, computed by
// a splitmix64-style bit mixer — no shared rng state, no locks. Two
// injectors built from the same seed and plan therefore produce identical
// per-point fault schedules. Under concurrency the *set* of faulted
// invocation indices per point is fixed by the seed; which request lands
// on which index follows goroutine scheduling, which is exactly the
// adversity the chaos suite's invariants must hold under.
package fault

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
)

// Point names one place production code asks the injector for a decision.
type Point uint8

const (
	// RequestDrop abruptly closes the client connection before the request
	// is processed (a dropped connection; the request has no effect).
	RequestDrop Point = iota
	// ResponseDelay stalls a response by the rule's Delay.
	ResponseDelay
	// QueueOverflow makes the bounded work queue report itself full,
	// forcing the 429 backpressure path without real saturation.
	QueueOverflow
	// LabelLoss drops one labeled record from an Observe batch before it
	// reaches the predictor (lossy label trickle).
	LabelLoss
	// LabelDelay stalls the application of an Observe batch (slow label
	// trickle).
	LabelDelay
	// ModelCorrupt flips one byte in a model-file read.
	ModelCorrupt
	// ClockSkew jumps an injected clock forward by up to the rule's Skew.
	ClockSkew
	// ReplicaCrash hard-kills one serving replica in a gateway fleet: the
	// listener closes abruptly, in-memory session state is lost, and the
	// gateway sees connection errors until its health checker notices. The
	// fleet harness (internal/gate) consults the point between workload
	// steps.
	ReplicaCrash
	// MigrationInterrupt aborts a session migration after the snapshot has
	// been pulled from the source but before the restore lands on the
	// target, forcing the migrator's recovery path (restore back to the
	// source) so the session still ends whole on exactly one replica.
	MigrationInterrupt
	// WALTear crashes the tiered session store (internal/store) mid-append:
	// only a prefix of the write-ahead-log frame reaches the disk, and the
	// torn bytes survive the crash (the page made it out before the
	// process died). Recovery must stop cleanly at the tear.
	WALTear
	// SpillCorrupt silently flips one byte inside a snapshot frame as it is
	// spilled to the segment tier. Nothing fails at write time — the
	// corruption is only discoverable later, when the CRC check at hydrate
	// or recovery time must reject the frame and fall back down the replay
	// ladder instead of serving a wrong predictor.
	SpillCorrupt
	// CrashBeforeFsync crashes the tiered session store after a frame is
	// handed to the kernel but before fsync: the un-synced tail is lost
	// with the crash, so recovery sees only the last durably acknowledged
	// prefix.
	CrashBeforeFsync

	// NumPoints is the number of defined fault points.
	NumPoints
)

// pointNames indexes Point.String.
var pointNames = [NumPoints]string{
	"request_drop", "response_delay", "queue_overflow",
	"label_loss", "label_delay", "model_corrupt", "clock_skew",
	"replica_crash", "migration_interrupt",
	"wal_tear", "spill_corrupt", "crash_before_fsync",
}

// String returns the point's snake_case name (used as a metric label).
func (p Point) String() string {
	if p >= NumPoints {
		return fmt.Sprintf("point_%d", uint8(p))
	}
	return pointNames[p]
}

// Rule configures one fault point. The zero value disables the point.
type Rule struct {
	// Prob is the probability that one invocation of the point faults.
	Prob float64
	// Delay is the stall injected by delay-class points when they fire.
	Delay time.Duration
	// Skew is the maximum forward clock jump for ClockSkew firings.
	Skew time.Duration
}

// Plan maps fault points to their rules; absent points never fire.
type Plan map[Point]Rule

// Injector decides, deterministically from its seed, which invocations of
// each fault point fault. All methods are safe on a nil receiver (no
// faults, zero cost) and safe for concurrent use.
type Injector struct {
	seed  int64
	rules [NumPoints]Rule
	// counts is the per-point invocation counter; fired counts firings.
	counts [NumPoints]atomic.Int64
	fired  [NumPoints]atomic.Int64
	// skew accumulates the injected clock offset (nanoseconds).
	skew atomic.Int64
	// observer, when set, is called with each fired point — the flight
	// recorder's dump-on-fault hook.
	observer atomic.Pointer[func(Point)]
}

// New builds an injector with the given seed and plan.
func New(seed int64, plan Plan) *Injector {
	i := &Injector{seed: seed}
	for p, r := range plan {
		if p < NumPoints {
			i.rules[p] = r
		}
	}
	return i
}

// mix64 is the splitmix64 finalizer: a bijective bit mixer whose output is
// uniform enough to derive independent per-(point, n) decisions without
// shared rng state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps (seed, point, n, salt) to a uniform float64 in [0, 1).
func unit(seed int64, p Point, n int64, salt uint64) float64 {
	h := mix64(uint64(seed) ^ mix64(uint64(p)+1) ^ mix64(uint64(n)+salt))
	return float64(h>>11) / (1 << 53)
}

// next atomically claims this goroutine's invocation index for p.
func (i *Injector) next(p Point) int64 {
	return i.counts[p].Add(1) - 1
}

// decide is the pure per-invocation decision.
func decide(seed int64, p Point, n int64, prob float64) bool {
	return prob > 0 && unit(seed, p, n, 0) < prob
}

// Fire reports whether point p faults at this invocation and advances the
// point's invocation counter. nil receiver: false, no state, no allocs.
func (i *Injector) Fire(p Point) bool {
	if i == nil || i.rules[p].Prob <= 0 {
		return false
	}
	if !decide(i.seed, p, i.next(p), i.rules[p].Prob) {
		return false
	}
	i.fired[p].Add(1)
	if fn := i.observer.Load(); fn != nil {
		(*fn)(p)
	}
	return true
}

// SetObserver installs a hook called with each fired point (after the
// firing is counted, before the caller acts on it). One observer is live
// at a time; nil receiver is a no-op.
func (i *Injector) SetObserver(fn func(Point)) {
	if i == nil {
		return
	}
	i.observer.Store(&fn)
}

// Delay returns the stall to inject for p at this invocation, or 0 when
// the point does not fire (or the receiver is nil).
func (i *Injector) Delay(p Point) time.Duration {
	if !i.Fire(p) {
		return 0
	}
	return i.rules[p].Delay
}

// Invocations returns how many times p has been consulted.
func (i *Injector) Invocations(p Point) int64 {
	if i == nil {
		return 0
	}
	return i.counts[p].Load()
}

// Fired returns how many times p has faulted.
func (i *Injector) Fired(p Point) int64 {
	if i == nil {
		return 0
	}
	return i.fired[p].Load()
}

// EachFired emits the fired count of every configured point, in point
// order — the hom_fault_fired metric collector. nil receiver emits nothing.
func (i *Injector) EachFired(emit func(p Point, fired int64)) {
	if i == nil {
		return
	}
	for p := Point(0); p < NumPoints; p++ {
		if i.rules[p].Prob > 0 {
			emit(p, i.fired[p].Load())
		}
	}
}

// WrapClock returns a clock whose readings include the injector's
// accumulated skew: each read consults ClockSkew, and a firing jumps the
// offset forward by a deterministic fraction of the rule's Skew. The
// offset only grows, so the wrapped clock stays monotone relative to its
// base. A nil injector returns base (nil-normalized) unchanged.
func (i *Injector) WrapClock(base clock.Clock) clock.Clock {
	base = base.OrWall()
	if i == nil || i.rules[ClockSkew].Prob <= 0 {
		return base
	}
	return func() time.Time {
		if n := i.counts[ClockSkew].Add(1) - 1; decide(i.seed, ClockSkew, n, i.rules[ClockSkew].Prob) {
			i.fired[ClockSkew].Add(1)
			jump := time.Duration(unit(i.seed, ClockSkew, n, 0x5bf0) * float64(i.rules[ClockSkew].Skew))
			i.skew.Add(int64(jump))
		}
		return base().Add(time.Duration(i.skew.Load()))
	}
}

// CorruptReader wraps r so that every Read consults ModelCorrupt; when it
// fires, one byte of the chunk (position and XOR mask derived from the
// schedule, mask never zero) is flipped. A nil injector or disabled point
// returns r unchanged, so the hook can sit permanently on the model-load
// path.
func (i *Injector) CorruptReader(r io.Reader) io.Reader {
	if i == nil || i.rules[ModelCorrupt].Prob <= 0 {
		return r
	}
	return &corruptReader{r: r, inj: i}
}

type corruptReader struct {
	r   io.Reader
	inj *Injector
}

// Read implements io.Reader, flipping one scheduled byte per faulted call.
func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		inj := c.inj
		if idx := inj.counts[ModelCorrupt].Add(1) - 1; decide(inj.seed, ModelCorrupt, idx, inj.rules[ModelCorrupt].Prob) {
			inj.fired[ModelCorrupt].Add(1)
			pos := int(unit(inj.seed, ModelCorrupt, idx, 0x70a1) * float64(n))
			if pos >= n {
				pos = n - 1
			}
			mask := byte(mix64(uint64(inj.seed)^mix64(uint64(idx)+0xc0de)) | 1)
			p[pos] ^= mask
		}
	}
	return n, err
}
