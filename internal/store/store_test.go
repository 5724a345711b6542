package store_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"highorder/internal/store"
)

// testVal is the store tests' stand-in for a predictor session: an
// opaque create blob plus the ordered list of observed record values,
// guarded the way serve guards a Session — a per-value mutex and a
// sealed flag set by the store's Seal callback before a spill snapshot.
// Its snapshot encoding is deterministic, so round-trip identity is
// byte-comparable.
type testVal struct {
	mu     sync.Mutex
	sealed bool
	opts   string
	recs   []uint64
}

// encodeVal encodes a testVal snapshot: uvarint len(opts) | opts |
// uvarint n | n uvarints.
func encodeVal(v *testVal) []byte {
	b := binary.AppendUvarint(nil, uint64(len(v.opts)))
	b = append(b, v.opts...)
	b = binary.AppendUvarint(b, uint64(len(v.recs)))
	for _, r := range v.recs {
		b = binary.AppendUvarint(b, r)
	}
	return b
}

func decodeVal(data []byte) (*testVal, error) {
	v := &testVal{}
	optLen, n := binary.Uvarint(data)
	if n <= 0 || optLen > uint64(len(data)-n) {
		return nil, fmt.Errorf("bad opts length")
	}
	data = data[n:]
	v.opts = string(data[:optLen])
	data = data[optLen:]
	cnt, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("bad record count")
	}
	data = data[n:]
	for i := uint64(0); i < cnt; i++ {
		r, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad record %d", i)
		}
		v.recs = append(v.recs, r)
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return v, nil
}

// encodeBatch encodes an observe batch for LogObserve/Replay.
func encodeBatch(recs []uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(recs)))
	for _, r := range recs {
		b = binary.AppendUvarint(b, r)
	}
	return b
}

func decodeBatch(data []byte) ([]uint64, error) {
	cnt, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("bad batch count")
	}
	data = data[n:]
	recs := make([]uint64, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		r, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad batch record %d", i)
		}
		recs = append(recs, r)
		data = data[n:]
	}
	return recs, nil
}

// testCallbacks builds the standard Callbacks for testVal; spilled, when
// non-nil, logs every OnSpill id.
func testCallbacks(spilled *[]string) store.Callbacks[*testVal] {
	cb := store.Callbacks[*testVal]{
		Snapshot: func(id string, v *testVal) ([]byte, uint64, error) {
			v.mu.Lock()
			defer v.mu.Unlock()
			return encodeVal(v), uint64(len(v.recs)), nil
		},
		Seal: func(id string, v *testVal) {
			v.mu.Lock()
			v.sealed = true
			v.mu.Unlock()
		},
		Unseal: func(id string, v *testVal) {
			v.mu.Lock()
			v.sealed = false
			v.mu.Unlock()
		},
		Hydrate: func(id string, data []byte) (*testVal, error) {
			return decodeVal(data)
		},
		Create: func(id string, data []byte) (*testVal, error) {
			return &testVal{opts: string(data)}, nil
		},
		Replay: func(id string, v *testVal, data []byte) (int, error) {
			recs, err := decodeBatch(data)
			if err != nil {
				return 0, err
			}
			v.recs = append(v.recs, recs...)
			return len(recs), nil
		},
	}
	if spilled != nil {
		cb.OnSpill = func(id string, v *testVal) { *spilled = append(*spilled, id) }
	}
	return cb
}

func testConfig(t *testing.T, hot int) store.Config {
	t.Helper()
	return store.Config{Dir: t.TempDir(), HotLimit: hot, Shards: 4, WAL: true}
}

func mustOpen(t *testing.T, cfg store.Config, cb store.Callbacks[*testVal]) *store.Store[*testVal] {
	t.Helper()
	s, err := store.Open(cfg, cb)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustGet(t *testing.T, s *store.Store[*testVal], id string) (*testVal, bool) {
	t.Helper()
	v, ok, hydrated, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get(%q): %v", id, err)
	}
	if !ok {
		t.Fatalf("Get(%q): not found", id)
	}
	return v, hydrated
}

func sameRecs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPutGetHotHit(t *testing.T) {
	s := mustOpen(t, testConfig(t, 8), testCallbacks(nil))
	defer s.Close()
	v := &testVal{opts: "o", recs: []uint64{1, 2, 3}}
	if err := s.Put("a", []byte("o"), v); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, hydrated := mustGet(t, s, "a")
	if got != v {
		t.Fatalf("hot Get returned a different value")
	}
	if hydrated {
		t.Fatalf("hot Get reported hydrated")
	}
	if err := s.Put("a", []byte("o"), v); err != store.ErrExists {
		t.Fatalf("duplicate Put: got %v, want ErrExists", err)
	}
	if _, ok, _, err := s.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing): ok=%v err=%v, want false, nil", ok, err)
	}
	st := s.Stats()
	if st.Hot != 1 || st.Cold != 0 {
		t.Fatalf("Stats: %+v, want 1 hot, 0 cold", st)
	}
}

func TestSpillAndHydrate(t *testing.T) {
	var spilled []string
	s := mustOpen(t, testConfig(t, 2), testCallbacks(&spilled))
	defer s.Close()
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("s%d", i)
		v := &testVal{opts: id, recs: []uint64{uint64(i), uint64(i * 10)}}
		if err := s.Put(id, []byte(id), v); err != nil {
			t.Fatalf("Put(%s): %v", id, err)
		}
	}
	st := s.Stats()
	if st.Hot != 2 {
		t.Fatalf("hot = %d, want 2 (bounded)", st.Hot)
	}
	if st.Cold != 3 || st.Spills != 3 {
		t.Fatalf("cold = %d spills = %d, want 3, 3", st.Cold, st.Spills)
	}
	if len(spilled) != 3 {
		t.Fatalf("OnSpill fired %d times, want 3", len(spilled))
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("s%d", i)
		v, _ := mustGet(t, s, id)
		if v.opts != id || !sameRecs(v.recs, []uint64{uint64(i), uint64(i * 10)}) {
			t.Fatalf("Get(%s) = %+v: state lost across spill", id, v)
		}
	}
	if s.Stats().Hydrates == 0 {
		t.Fatalf("no hydrations recorded despite cold reads")
	}
}

func TestHydrateLatencyObserved(t *testing.T) {
	var observed int
	cfg := testConfig(t, 1)
	cfg.HydrateObserve = func(seconds float64) {
		if seconds < 0 {
			t.Errorf("negative hydrate latency %v", seconds)
		}
		observed++
	}
	s := mustOpen(t, cfg, testCallbacks(nil))
	defer s.Close()
	if err := s.Put("a", nil, &testVal{opts: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", nil, &testVal{opts: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, hydrated := mustGet(t, s, "a"); !hydrated {
		t.Fatalf("Get(a) should have hydrated")
	}
	if observed != 1 {
		t.Fatalf("HydrateObserve fired %d times, want 1", observed)
	}
}

func TestRemoveAcrossTiers(t *testing.T) {
	s := mustOpen(t, testConfig(t, 1), testCallbacks(nil))
	if err := s.Put("hot", nil, &testVal{opts: "hot"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("cold", nil, &testVal{opts: "cold"}); err != nil {
		t.Fatal(err)
	}
	// "hot" was evicted by "cold"'s arrival; remove one from each tier.
	for _, id := range []string{"hot", "cold"} {
		existed, err := s.Remove(id)
		if err != nil || !existed {
			t.Fatalf("Remove(%s): existed=%v err=%v", id, existed, err)
		}
	}
	if existed, _ := s.Remove("hot"); existed {
		t.Fatalf("second Remove reported existed")
	}
	if n := s.Count(); n != 0 {
		t.Fatalf("Count = %d after removes, want 0", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestCloseCheckpointAndReopen(t *testing.T) {
	cfg := testConfig(t, 4)
	s := mustOpen(t, cfg, testCallbacks(nil))
	want := map[string][]uint64{}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("s%d", i)
		recs := []uint64{uint64(i), uint64(i) + 100}
		want[id] = recs
		if err := s.Put(id, []byte(id), &testVal{opts: id, recs: recs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put("late", nil, &testVal{}); err != store.ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}

	s2 := mustOpen(t, cfg, testCallbacks(nil))
	defer s2.Close()
	st := s2.Stats()
	if st.Hot != 0 || st.Cold != 10 {
		t.Fatalf("reopened Stats %+v, want all 10 cold", st)
	}
	if st.WALReplayed != 0 {
		t.Fatalf("clean reopen replayed %d WAL records, want 0 (checkpoint truncates)", st.WALReplayed)
	}
	for id, recs := range want {
		v, hydrated := mustGet(t, s2, id)
		if !hydrated {
			t.Fatalf("Get(%s) not hydrated after reopen", id)
		}
		if v.opts != id || !sameRecs(v.recs, recs) {
			t.Fatalf("Get(%s) = %+v, want recs %v", id, v, recs)
		}
	}
}

func TestWALReplayAfterCrash(t *testing.T) {
	cfg := testConfig(t, 8)
	s := mustOpen(t, cfg, testCallbacks(nil))
	v := &testVal{opts: "a"}
	if err := s.Put("a", []byte("a"), v); err != nil {
		t.Fatal(err)
	}
	// Apply and acknowledge two batches: value mutated in memory, batch
	// logged durably, exactly as serve does under the session lock.
	for _, batch := range [][]uint64{{7, 8}, {9}} {
		base := uint64(len(v.recs))
		v.recs = append(v.recs, batch...)
		if err := s.LogObserve("a", base, encodeBatch(batch)); err != nil {
			t.Fatalf("LogObserve: %v", err)
		}
	}
	if err := s.CrashForTest(); err != nil {
		t.Fatalf("CrashForTest: %v", err)
	}
	if _, _, _, err := s.Get("a"); err != store.ErrInjectedCrash {
		t.Fatalf("Get after crash: %v, want ErrInjectedCrash", err)
	}

	s2 := mustOpen(t, cfg, testCallbacks(nil))
	defer s2.Close()
	got, _ := mustGet(t, s2, "a")
	if got.opts != "a" || !sameRecs(got.recs, []uint64{7, 8, 9}) {
		t.Fatalf("recovered %+v, want opts=a recs=[7 8 9]", got)
	}
	if n := s2.Stats().WALReplayed; n != 3 {
		t.Fatalf("WALReplayed = %d, want 3", n)
	}
}

func TestSpillSurvivesCrashViaWAL(t *testing.T) {
	// A spilled-then-crashed session must recover even though segment
	// appends never fsync: the WAL (create + observes) is the root.
	cfg := testConfig(t, 1)
	s := mustOpen(t, cfg, testCallbacks(nil))
	v := &testVal{opts: "a"}
	if err := s.Put("a", []byte("a"), v); err != nil {
		t.Fatal(err)
	}
	v.recs = append(v.recs, 5)
	if err := s.LogObserve("a", 0, encodeBatch([]uint64{5})); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("b"), &testVal{opts: "b"}); err != nil { // evicts a
		t.Fatal(err)
	}
	if s.Stats().Spills != 1 {
		t.Fatalf("expected a to be spilled")
	}
	if err := s.CrashForTest(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, cfg, testCallbacks(nil))
	defer s2.Close()
	got, _ := mustGet(t, s2, "a")
	if !sameRecs(got.recs, []uint64{5}) {
		t.Fatalf("recovered a = %+v, want recs=[5]", got)
	}
	if gotB, _ := mustGet(t, s2, "b"); gotB.opts != "b" {
		t.Fatalf("recovered b = %+v", gotB)
	}
}

func TestRemoveSurvivesCrash(t *testing.T) {
	cfg := testConfig(t, 8)
	s := mustOpen(t, cfg, testCallbacks(nil))
	if err := s.Put("gone", []byte("gone"), &testVal{opts: "gone"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashForTest(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, cfg, testCallbacks(nil))
	defer s2.Close()
	if _, ok, _, err := s2.Get("gone"); err != nil || ok {
		t.Fatalf("removed id resurrected after crash: ok=%v err=%v", ok, err)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	cfg := testConfig(t, 4)
	if err := os.WriteFile(filepath.Join(cfg.Dir, "seg-00.hom"), []byte("not a tier file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(cfg, testCallbacks(nil)); err == nil {
		t.Fatalf("Open accepted a non-homgob segment file")
	}
}

// TestSpillSealsBeforeSnapshot pins the spill/observe ordering: by the
// time a spill's snapshot has been taken, the value must already be
// sealed, so a mutator holding a pre-spill pointer cannot apply (and
// WAL-acknowledge) a batch the snapshot missed. The test freezes the
// spill right after its Snapshot callback returns and probes the stale
// pointer from a second goroutine: it must find the value sealed, let
// the spill finish, and land its batch on the rehydrated copy instead —
// where a final Get can still see it. Before sealing existed the probe
// found the value mutable, the batch went to the dead object, and the
// next hydration served the pre-batch snapshot: an acknowledged label
// silently lost without any crash.
func TestSpillSealsBeforeSnapshot(t *testing.T) {
	var (
		armed         atomic.Bool
		snapshotTaken = make(chan struct{})
		mutatorDone   = make(chan struct{})
	)
	cb := testCallbacks(nil)
	baseSnap := cb.Snapshot
	cb.Snapshot = func(id string, v *testVal) ([]byte, uint64, error) {
		data, seq, err := baseSnap(id, v)
		if armed.CompareAndSwap(true, false) {
			close(snapshotTaken)
			<-mutatorDone // hold the spill open while the mutator probes
		}
		return data, seq, err
	}
	s := mustOpen(t, testConfig(t, 2), cb)
	defer s.Close()
	v := &testVal{opts: "a"}
	if err := s.Put("a", []byte("a"), v); err != nil {
		t.Fatal(err)
	}

	probed := make(chan error, 1)
	go func() {
		probed <- func() error {
			<-snapshotTaken
			// The spill holds store.mu and has captured its snapshot, but
			// has not yet indexed it. The pre-spill pointer must already
			// be sealed; LogObserve takes only the shard lock, so nothing
			// would stop the buggy interleaving here.
			v.mu.Lock()
			sealed := v.sealed
			if !sealed {
				v.recs = append(v.recs, 42)
				if err := s.LogObserve("a", 0, encodeBatch([]uint64{42})); err != nil {
					v.mu.Unlock()
					return err
				}
			}
			v.mu.Unlock()
			close(mutatorDone)
			if !sealed {
				return fmt.Errorf("value mutable after the spill snapshot was taken")
			}
			// The correct path: re-resolve through Get (blocks until the
			// spill finishes) and apply the batch to the live copy.
			fresh, ok, _, err := s.Get("a")
			if err != nil || !ok {
				return fmt.Errorf("re-resolve Get: ok=%v err=%v", ok, err)
			}
			fresh.mu.Lock()
			defer fresh.mu.Unlock()
			if fresh.sealed {
				return fmt.Errorf("rehydrated copy is sealed")
			}
			fresh.recs = append(fresh.recs, 42)
			return s.LogObserve("a", 0, encodeBatch([]uint64{42}))
		}()
	}()

	armed.Store(true)
	if err := s.Spill("a"); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	if err := <-probed; err != nil {
		t.Fatal(err)
	}
	got, _ := mustGet(t, s, "a")
	if !sameRecs(got.recs, []uint64{42}) {
		t.Fatalf("batch acknowledged during the spill was lost: recs = %v, want [42]", got.recs)
	}
}

// TestFreedSlotReusedBeforeEviction is the clock-ring regression: a slot
// emptied by Remove must be refilled before the hand evicts a resident.
// With HotLimit 2, putting a, b, c spills a; removing c frees its slot,
// so putting d must spill nothing and leave both slots in use.
func TestFreedSlotReusedBeforeEviction(t *testing.T) {
	var spilled []string
	s := mustOpen(t, testConfig(t, 2), testCallbacks(&spilled))
	defer s.Close()
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Put(id, nil, &testVal{opts: id}); err != nil {
			t.Fatal(err)
		}
	}
	if existed, err := s.Remove("c"); !existed || err != nil {
		t.Fatalf("Remove(c): existed=%v err=%v", existed, err)
	}
	if err := s.Put("d", nil, &testVal{opts: "d"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hot != 2 || len(spilled) != 1 {
		t.Fatalf("after Put(d): hot=%d spilled=%v, want 2 hot and only a spilled", st.Hot, spilled)
	}
}

// TestMemoryOnlyStore drives a store opened without a Dir: values live
// in memory only, a spill seals and drops the value and fires OnSpill,
// and Persist, LogObserve, and Close succeed with no files behind them.
func TestMemoryOnlyStore(t *testing.T) {
	var spilled []string
	s := mustOpen(t, store.Config{HotLimit: 4}, testCallbacks(&spilled))
	a := &testVal{opts: "a"}
	if err := s.Put("a", nil, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", nil, &testVal{}); err != store.ErrExists {
		t.Fatalf("duplicate Put: %v, want ErrExists", err)
	}
	if err := s.Put("b", nil, &testVal{opts: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("a"); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	if err := s.LogObserve("a", 0, encodeBatch([]uint64{1})); err != nil {
		t.Fatalf("LogObserve: %v", err)
	}
	if err := s.Spill("a"); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	if !a.sealed || len(spilled) != 1 || spilled[0] != "a" {
		t.Fatalf("spill of a: sealed=%v OnSpill=%v, want sealed and [a]", a.sealed, spilled)
	}
	if _, ok, _, err := s.Get("a"); ok || err != nil {
		t.Fatalf("Get(a) after spill: ok=%v err=%v, want dropped", ok, err)
	}
	if st := s.Stats(); st.Hot != 1 || st.Cold != 0 || st.Spills != 1 {
		t.Fatalf("Stats: %+v, want 1 hot, 0 cold, 1 spill", st)
	}
	if existed, err := s.Remove("b"); !existed || err != nil {
		t.Fatalf("Remove(b): existed=%v err=%v", existed, err)
	}
	if n := s.Count(); n != 0 {
		t.Fatalf("Count = %d after removes, want 0", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, _, err := s.Get("b"); err != store.ErrClosed {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
}

// TestMemoryOnlyOpen: a memory-only store refuses a WAL, which would have
// nowhere to live, and needs no tier callbacks. Its ring grows as values
// arrive, so a huge HotLimit costs nothing up front.
func TestMemoryOnlyOpen(t *testing.T) {
	if _, err := store.Open(store.Config{HotLimit: 4, WAL: true}, testCallbacks(nil)); err == nil {
		t.Fatal("Open accepted a WAL without a Dir")
	}
	s := mustOpen(t, store.Config{HotLimit: math.MaxInt}, store.Callbacks[*testVal]{})
	defer s.Close()
	if err := s.Put("a", nil, &testVal{}); err != nil {
		t.Fatal(err)
	}
}

func TestHotGetZeroAllocs(t *testing.T) {
	s := mustOpen(t, testConfig(t, 8), testCallbacks(nil))
	defer s.Close()
	if err := s.Put("hot", nil, &testVal{opts: "hot"}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok, _, err := s.Get("hot"); !ok || err != nil {
			t.Fatalf("hot Get failed: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot-hit Get allocates %v allocs/op, want 0", allocs)
	}
}
