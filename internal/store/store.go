package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"highorder/internal/clock"
	"highorder/internal/fault"
)

var (
	// ErrExists reports a Put for an id already present in either tier.
	ErrExists = errors.New("store: session already exists")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrInjectedCrash poisons the store after a seeded crash point fires:
	// the simulated process is dead, and every subsequent operation fails
	// with it until the test truncates the files (CrashForTest) and opens
	// a fresh store over the directory.
	ErrInjectedCrash = errors.New("store: injected crash")
	// ErrNotFound reports a Spill or Persist of an id not in the hot tier.
	ErrNotFound = errors.New("store: session not found")
)

// Config configures a store: tiered with a Dir, memory-only without.
type Config struct {
	// Dir is the spill directory holding the per-shard tier files. Empty
	// opens a memory-only store: no files and no cold tier (see the
	// package comment).
	Dir string
	// HotLimit bounds the in-memory hot set (minimum 1).
	HotLimit int
	// Shards is the number of segment/WAL file pairs (default 8).
	Shards int
	// WAL enables the write-ahead log of acknowledged observe batches.
	// Without it, only spilled snapshots survive a restart. It needs Dir.
	WAL bool
	// Clock times hydration (nil falls back to the wall clock).
	Clock clock.Clock
	// Fault is the seeded crash-point injector (nil disables all points).
	Fault *fault.Injector
	// HydrateObserve, when set, receives each hydration's latency in
	// seconds — the hook internal/serve points at its
	// hom_session_hydrate_seconds histogram.
	HydrateObserve func(seconds float64)
}

// Callbacks bridges the store's opaque byte tiers to the caller's value
// type. All callbacks may be invoked with store-internal locks held and
// must not call back into the store.
type Callbacks[V any] struct {
	// Snapshot encodes v for the segment tier and reports its observe
	// sequence (how many observe records are folded into the snapshot).
	// Snapshot, Hydrate, Create, and Replay are required with a Dir; a
	// memory-only store never calls them.
	Snapshot func(id string, v V) (data []byte, seq uint64, err error)
	// Hydrate decodes a snapshot back into a value.
	Hydrate func(id string, data []byte) (V, error)
	// Create rebuilds a fresh value from the opaque create blob logged at
	// Put time — the recovery base when no snapshot survived.
	Create func(id string, data []byte) (V, error)
	// Replay applies one logged observe batch to v and reports how many
	// records it held (the hom_wal_replayed_records_total increment).
	Replay func(id string, v V, data []byte) (int, error)
	// Seal, when set, is invoked immediately before Snapshot as v is about
	// to leave the hot tier. It must acquire v's own mutation lock and
	// mark v stale, so a mutation batch racing the spill either completes
	// first — and is captured by the snapshot — or observes the mark and
	// re-resolves through Get, which blocks until the spill finishes and
	// then hydrates the fresh copy. Without it, a mutation applied (and
	// WAL-acknowledged) between the snapshot and the caller learning of
	// the spill would silently vanish on the next hydration. Called with
	// store locks held.
	Seal func(id string, v V)
	// Unseal reverses Seal when a spill aborts after sealing (snapshot or
	// segment-append error): v stays hot and must accept mutations again.
	// Called with store locks held.
	Unseal func(id string, v V)
	// OnSpill, when set, is notified after v has left the hot tier —
	// demoted to disk, or dropped by a memory-only store (metrics
	// teardown). Called with store locks held.
	OnSpill func(id string, v V)
}

// hotEntry is one resident of the hot tier. ref is the clock ring's
// second-chance bit: Get sets it, the sweeping hand clears it, and only
// an entry found with it clear is evicted — so a session touched since
// the hand last passed is never spilled. It is atomic because Get runs
// under the read lock.
type hotEntry[V any] struct {
	id   string
	v    V
	ref  atomic.Bool
	slot int
}

// coldRef locates a cold id's newest snapshot frame.
type coldRef struct {
	shard int
	off   int64
	flen  int
	seq   uint64
}

// Store is a tiered session store: a bounded hot map+clock ring over
// per-shard segment/WAL files, or the hot tier alone in memory-only mode.
// See the package comment for the tiering and durability contract.
type Store[V any] struct {
	cfg Config
	cb  Callbacks[V]
	clk clock.Clock

	// mu guards hot, ring, free, hand, cold, and closed. Lock order:
	// store.mu -> caller's per-value locks (inside callbacks) -> shard.mu.
	mu   sync.RWMutex
	hot  map[string]*hotEntry[V]
	ring []*hotEntry[V]
	// free lists the emptied (nil) ring slots, which place fills before
	// the hand evicts anyone: a hot set below its bound spills nothing.
	free   []int
	hand   int
	cold   map[string]coldRef
	closed bool

	shards  []*shard
	crashed atomic.Bool
	// walErrForTest, when holding a non-nil error, fails LogObserve
	// without poisoning the store — a real WAL I/O failure (full disk,
	// dying device), as opposed to the injected crash points that kill
	// the simulated process. Set via FailWALForTest.
	walErrForTest atomic.Value // walErrBox

	spills      atomic.Int64
	hydrates    atomic.Int64
	walReplayed atomic.Int64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hot and Cold are the tier populations.
	Hot, Cold int64
	// Spills and Hydrates count tier crossings since Open.
	Spills, Hydrates int64
	// WALReplayed counts observe records replayed during recovery.
	WALReplayed int64
}

// shardIndex is inlined fnv-32a over the id (allocation-free, unlike
// hash/fnv's heap-allocated digest).
func shardIndex(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

func (s *Store[V]) shardFor(id string) (*shard, int) {
	i := shardIndex(id, len(s.shards))
	return s.shards[i], i
}

func (s *Store[V]) markCrashed() { s.crashed.Store(true) }

// memoryOnly reports a store opened without a Dir: no files, no cold tier.
func (s *Store[V]) memoryOnly() bool { return s.cfg.Dir == "" }

// failed returns the poisoning error, if any.
func (s *Store[V]) failed() error {
	if s.crashed.Load() {
		return ErrInjectedCrash
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Count returns the total session population across both tiers.
func (s *Store[V]) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.hot) + len(s.cold)
}

// Stats returns current tier populations and lifetime counters.
func (s *Store[V]) Stats() Stats {
	s.mu.RLock()
	hot, cold := len(s.hot), len(s.cold)
	s.mu.RUnlock()
	return Stats{
		Hot:         int64(hot),
		Cold:        int64(cold),
		Spills:      s.spills.Load(),
		Hydrates:    s.hydrates.Load(),
		WALReplayed: s.walReplayed.Load(),
	}
}

// Put registers a new session in the hot tier. The entry is placed
// first and the create blob WAL-logged (fsync'd) after, so a Put the
// caller saw fail leaves nothing durable behind — logging the create
// first would let a later place failure strand a durable create record
// that resurrects the id on the next restart and blocks it with
// ErrExists. A create the caller acknowledges is on disk before Put
// returns, so it can be rebuilt even if the process dies before the
// first spill. Returns ErrExists if the id is live in either tier.
func (s *Store[V]) Put(id string, createData []byte, v V) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.failed(); err != nil {
		return err
	}
	if _, ok := s.hot[id]; ok {
		return ErrExists
	}
	if _, ok := s.cold[id]; ok {
		return ErrExists
	}
	e := &hotEntry[V]{id: id, v: v}
	e.ref.Store(true)
	if err := s.place(e); err != nil {
		return err
	}
	if s.memoryOnly() {
		s.hot[id] = e
		return nil
	}
	sh, _ := s.shardFor(id)
	sh.mu.Lock()
	err := ErrInjectedCrash
	// Re-check under the shard lock: a concurrent LogObserve (which does
	// not hold store.mu) may have fired a crash point while we waited,
	// and fsyncing after the simulated death would make its unsynced,
	// never-acknowledged tail frame durable.
	if !s.crashed.Load() {
		err = sh.appendWAL(record{kind: recCreate, id: id, data: createData}, true, s.cfg.Fault, s.markCrashed)
	}
	sh.mu.Unlock()
	if err != nil {
		// The create never became durable; release the claimed ring slot
		// so the failed id does not occupy hot capacity. A victim spilled
		// by place stays validly cold.
		s.freeSlot(e.slot)
		return err
	}
	s.hot[id] = e
	return nil
}

// place finds a ring slot for e: a freed slot first, then a new one while
// the ring is below HotLimit, and only then a second-chance victim. Every
// nil slot is on the free list, so the hand sweeps a full ring of
// residents. Callers hold the write lock.
func (s *Store[V]) place(e *hotEntry[V]) error {
	if n := len(s.free); n > 0 {
		e.slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.ring[e.slot] = e
		return nil
	}
	if len(s.ring) < s.cfg.HotLimit {
		e.slot = len(s.ring)
		s.ring = append(s.ring, e)
		return nil
	}
	for {
		slot := s.hand
		s.hand = (s.hand + 1) % len(s.ring)
		cand := s.ring[slot]
		if cand.ref.Load() {
			cand.ref.Store(false)
			continue
		}
		if err := s.spillLocked(cand); err != nil {
			return err
		}
		e.slot = slot
		s.ring[slot] = e
		return nil
	}
}

// freeSlot empties a ring slot and queues it for the next place.
func (s *Store[V]) freeSlot(slot int) {
	s.ring[slot] = nil
	s.free = append(s.free, slot)
}

// spillLocked moves e's value to the segment tier: seal, snapshot,
// append (unsynced — the WAL is the durability root), index, release.
// Sealing comes strictly first: Seal takes the value's own lock, so a
// mutation batch racing this spill either finishes before the snapshot
// below (and lands inside it) or sees the seal and re-resolves through
// Get — snapshotting first would open a window where an acknowledged
// mutation lands in the live value after its bytes were captured and is
// silently lost on the next hydration. A memory-only store seals and
// releases: the value is dropped. The ring slot is left for the caller
// to reuse or free. Callers hold the write lock.
func (s *Store[V]) spillLocked(e *hotEntry[V]) error {
	if s.cb.Seal != nil {
		s.cb.Seal(e.id, e.v)
	}
	if !s.memoryOnly() {
		if err := s.writeCold(e); err != nil {
			s.unseal(e)
			return err
		}
	}
	delete(s.hot, e.id)
	s.spills.Add(1)
	if s.cb.OnSpill != nil {
		s.cb.OnSpill(e.id, e.v)
	}
	return nil
}

// writeCold appends e's snapshot to its shard's segment and indexes it
// in the cold tier. Callers hold the write lock.
func (s *Store[V]) writeCold(e *hotEntry[V]) error {
	data, seq, err := s.cb.Snapshot(e.id, e.v)
	if err != nil {
		return fmt.Errorf("store: snapshot %q: %w", e.id, err)
	}
	sh, shi := s.shardFor(e.id)
	sh.mu.Lock()
	off, flen, err := sh.appendSeg(record{kind: recSnapshot, id: e.id, seq: seq, data: data}, s.cfg.Fault)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.cold[e.id] = coldRef{shard: shi, off: off, flen: flen, seq: seq}
	return nil
}

// unseal reopens a sealed value after an aborted spill.
func (s *Store[V]) unseal(e *hotEntry[V]) {
	if s.cb.Unseal != nil {
		s.cb.Unseal(e.id, e.v)
	}
}

// Get returns the value for id, hydrating it from the cold tier if
// needed. A hot hit costs two map operations and an atomic store — zero
// allocations (see TestHotGetZeroAllocs). hydrated reports whether this
// call crossed the cold tier; ok is false when the id is in neither tier.
func (s *Store[V]) Get(id string) (v V, ok bool, hydrated bool, err error) {
	s.mu.RLock()
	if s.crashed.Load() || s.closed {
		s.mu.RUnlock()
		var zero V
		return zero, false, false, s.failedSlow()
	}
	if e, hit := s.hot[id]; hit {
		e.ref.Store(true)
		v = e.v
		s.mu.RUnlock()
		return v, true, false, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	var zero V
	if err := s.failed(); err != nil {
		return zero, false, false, err
	}
	if e, hit := s.hot[id]; hit { // lost a hydration race; it's hot now
		e.ref.Store(true)
		return e.v, true, false, nil
	}
	ref, cold := s.cold[id]
	if !cold {
		return zero, false, false, nil
	}
	start := s.clk()
	v, err = s.hydrate(id, ref)
	if err != nil {
		return zero, false, false, err
	}
	if s.cfg.HydrateObserve != nil {
		s.cfg.HydrateObserve(s.clk().Sub(start).Seconds())
	}
	e := &hotEntry[V]{id: id, v: v}
	e.ref.Store(true)
	if err := s.place(e); err != nil {
		return zero, false, false, err
	}
	delete(s.cold, id)
	s.hot[id] = e
	s.hydrates.Add(1)
	return v, true, true, nil
}

// failedSlow re-derives the poisoning error without the lock (for the
// allocation-free hot path's bail-out branch).
func (s *Store[V]) failedSlow() error {
	if s.crashed.Load() {
		return ErrInjectedCrash
	}
	return ErrClosed
}

// hydrate reads the indexed snapshot frame back into a value. A frame
// that fails its CRC or decode — a silently corrupted spill — does not
// fail the session: recoverID walks the shard's full replay ladder
// (older snapshots, then the WAL) to rebuild the newest provable state.
func (s *Store[V]) hydrate(id string, ref coldRef) (V, error) {
	sh := s.shards[ref.shard]
	buf := make([]byte, ref.flen)
	if n, err := sh.seg.f.ReadAt(buf, ref.off); err != nil && !(err == io.EOF && n == len(buf)) {
		return s.recoverID(id, ref.shard)
	}
	_, payload, _, err := readFrameAt(buf, 0)
	if err != nil {
		return s.recoverID(id, ref.shard)
	}
	rec, err := decodeRecord(payload)
	if err != nil || rec.kind != recSnapshot || rec.id != id {
		return s.recoverID(id, ref.shard)
	}
	v, err := s.cb.Hydrate(id, rec.data)
	if err != nil {
		return s.recoverID(id, ref.shard)
	}
	return v, nil
}

// Remove deletes id from both tiers, logging a segment tombstone and a
// durable (fsync'd) WAL remove so the deletion survives a crash — a
// migrated-away session must not resurrect on its old replica.
func (s *Store[V]) Remove(id string) (existed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.failed(); err != nil {
		return false, err
	}
	if e, ok := s.hot[id]; ok {
		existed = true
		s.freeSlot(e.slot)
		delete(s.hot, id)
	} else if _, ok := s.cold[id]; ok {
		existed = true
		delete(s.cold, id)
	}
	if !existed || s.memoryOnly() {
		return existed, nil
	}
	sh, _ := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.crashed.Load() {
		// See LogObserve: no append or fsync after the simulated death.
		return true, ErrInjectedCrash
	}
	if _, _, err := sh.appendSeg(record{kind: recTombstone, id: id}, s.cfg.Fault); err != nil {
		return true, err
	}
	if sh.wal != nil {
		return true, sh.appendWAL(record{kind: recRemove, id: id}, true, s.cfg.Fault, s.markCrashed)
	}
	// No WAL: the tombstone itself must be durable.
	return true, sh.seg.sync()
}

// Spill demotes a hot id to the cold tier — the TTL-idle path. The value
// survives on disk and rehydrates on the next Get; a memory-only store
// drops it.
func (s *Store[V]) Spill(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.failed(); err != nil {
		return err
	}
	e, ok := s.hot[id]
	if !ok {
		return ErrNotFound
	}
	if err := s.spillLocked(e); err != nil {
		return err
	}
	s.freeSlot(e.slot)
	return nil
}

// Persist appends a durable (fsync'd) snapshot of a hot id without
// demoting it — the admin-restore path's guarantee that a restored
// session survives a crash that follows the 200. A memory-only store has
// nothing to persist to.
func (s *Store[V]) Persist(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.failed(); err != nil {
		return err
	}
	e, ok := s.hot[id]
	if !ok {
		return ErrNotFound
	}
	if s.memoryOnly() {
		return nil
	}
	data, seq, err := s.cb.Snapshot(e.id, e.v)
	if err != nil {
		return fmt.Errorf("store: snapshot %q: %w", id, err)
	}
	sh, _ := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, _, err := sh.appendSeg(record{kind: recSnapshot, id: id, seq: seq, data: data}, s.cfg.Fault); err != nil {
		return err
	}
	return sh.seg.sync()
}

// LogObserve appends an acknowledged observe batch to the WAL and fsyncs
// it — the call a handler makes before acknowledging labels, and the
// reason an acked label survives any crash. baseSeq is the value's
// observe sequence before the batch; data is the caller's encoding of
// the records actually applied. Takes only the shard lock, so callers
// may hold their per-value lock (lock order store.mu -> value -> shard).
// A store opened without a WAL accepts and ignores the call.
func (s *Store[V]) LogObserve(id string, baseSeq uint64, data []byte) error {
	if s.crashed.Load() {
		return ErrInjectedCrash
	}
	if box, _ := s.walErrForTest.Load().(walErrBox); box.err != nil {
		return box.err
	}
	if !s.cfg.WAL {
		return nil
	}
	sh, _ := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.crashed.Load() {
		// A crash point fired while we waited for the shard. The simulated
		// process is dead — and appending (and fsyncing) now would make the
		// dead append's unsynced, never-acknowledged tail frame durable,
		// resurrecting records nobody acked.
		return ErrInjectedCrash
	}
	return sh.appendWAL(record{kind: recObserve, id: id, seq: baseSeq, data: data}, true, s.cfg.Fault, s.markCrashed)
}

// EachHot calls fn for every hot resident until fn returns false. The
// read lock is held throughout; fn may take per-value locks but must not
// call back into the store.
func (s *Store[V]) EachHot(fn func(id string, v V) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, e := range s.hot {
		if !fn(id, e.v) {
			return
		}
	}
}

// EachCold calls fn for every cold id until fn returns false.
func (s *Store[V]) EachCold(fn func(id string) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id := range s.cold {
		if !fn(id) {
			return
		}
	}
}

// Close checkpoints and shuts the store down: every hot resident is
// snapshotted to its segment, segments are fsync'd, and only then is the
// WAL truncated — so a clean shutdown restarts from compact snapshots
// with an empty log. A memory-only store just stops serving.
func (s *Store[V]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.crashed.Load() || s.memoryOnly() {
		// CrashForTest already truncated and closed the files, or there
		// are none.
		return nil
	}
	var firstErr error
	for _, e := range s.hot {
		data, seq, err := s.cb.Snapshot(e.id, e.v)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sh, _ := s.shardFor(e.id)
		sh.mu.Lock()
		_, _, err = sh.appendSeg(record{kind: recSnapshot, id: e.id, seq: seq, data: data}, nil)
		sh.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.seg.sync(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			sh.mu.Unlock()
			continue
		}
		if sh.wal != nil && firstErr == nil {
			if err := truncateWAL(sh.wal); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := sh.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// truncateWAL resets a WAL file to its bare header (callers hold
// shard.mu and have already made the segments durable).
func truncateWAL(tf *tierFile) error {
	if err := tf.f.Truncate(fileHeaderSize); err != nil {
		return err
	}
	tf.size = fileHeaderSize
	if err := tf.sync(); err != nil {
		return err
	}
	return nil
}

// walErrBox wraps the forced LogObserve error so clearing it (nil) can
// still be stored in the atomic.Value.
type walErrBox struct{ err error }

// FailWALForTest makes every subsequent LogObserve fail with err without
// poisoning the store, simulating a real (non-crash) WAL I/O error such
// as a full disk. Pass nil to restore normal operation. Test-only, like
// CrashForTest.
func (s *Store[V]) FailWALForTest(err error) { s.walErrForTest.Store(walErrBox{err: err}) }

// CrashForTest simulates kill -9: every tier file is truncated to the
// prefix a real crash would have preserved (synced bytes, plus any torn
// tail a WALTear landed) and closed, and the store is poisoned with
// ErrInjectedCrash. A fresh Open over the same directory then exercises
// recovery.
func (s *Store[V]) CrashForTest() error {
	s.markCrashed()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.crash(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	return firstErr
}
