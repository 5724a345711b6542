package store_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"highorder/internal/core"
	"highorder/internal/store"
)

// TestPropHotSetNeverExceedsBound drives randomized Put/Get/Remove/Spill
// traffic over many seeds and checks after every operation that the hot
// tier never exceeds its bound, that no live id is ever lost, and that a
// Put or a hydrating Get that starts with Hot < HotLimit spills nothing
// (a freed ring slot is reused before any resident is evicted).
func TestPropHotSetNeverExceedsBound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hotLimit := 1 + rng.Intn(6)
		cfg := store.Config{Dir: t.TempDir(), HotLimit: hotLimit, Shards: 1 + rng.Intn(4), WAL: true}
		s, err := store.Open(cfg, testCallbacks(nil))
		if err != nil {
			t.Logf("seed %d: Open: %v", seed, err)
			return false
		}
		defer s.Close()
		live := map[string]bool{}
		for op := 0; op < 200; op++ {
			id := fmt.Sprintf("s%d", rng.Intn(20))
			before := s.Stats()
			kind := rng.Intn(4)
			switch kind {
			case 0:
				err := s.Put(id, []byte(id), &testVal{opts: id})
				if live[id] && err != store.ErrExists {
					t.Logf("seed %d: duplicate Put(%s): %v", seed, id, err)
					return false
				}
				if !live[id] {
					if err != nil {
						t.Logf("seed %d: Put(%s): %v", seed, id, err)
						return false
					}
					live[id] = true
				}
			case 1:
				_, ok, _, err := s.Get(id)
				if err != nil || ok != live[id] {
					t.Logf("seed %d: Get(%s): ok=%v err=%v live=%v", seed, id, ok, err, live[id])
					return false
				}
			case 2:
				existed, err := s.Remove(id)
				if err != nil || existed != live[id] {
					t.Logf("seed %d: Remove(%s): existed=%v err=%v live=%v", seed, id, existed, err, live[id])
					return false
				}
				delete(live, id)
			case 3:
				// Spill is only legal for hot ids; ErrNotFound otherwise.
				if err := s.Spill(id); err != nil && err != store.ErrNotFound {
					t.Logf("seed %d: Spill(%s): %v", seed, id, err)
					return false
				}
			}
			st := s.Stats()
			if kind <= 1 && before.Hot < int64(hotLimit) && st.Spills != before.Spills {
				t.Logf("seed %d: op %d spilled with %d of %d hot slots in use", seed, kind, before.Hot, hotLimit)
				return false
			}
			if st.Hot > int64(hotLimit) {
				t.Logf("seed %d: hot=%d exceeds bound %d", seed, st.Hot, hotLimit)
				return false
			}
			if int(st.Hot+st.Cold) != len(live) {
				t.Logf("seed %d: population %d+%d != live %d", seed, st.Hot, st.Cold, len(live))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropSecondChanceProtectsTouched checks the clock policy's promise:
// a session touched since the hand last cleared its reference bit is
// never the eviction victim while an untouched candidate remains. Setup:
// fill the ring and force one eviction, which burns every entry's second
// chance (a full clearing sweep); then touch one random survivor and
// force another eviction. The touched session must not be the one
// spilled, whatever its ring position relative to the hand.
func TestPropSecondChanceProtectsTouched(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hotLimit := 3 + rng.Intn(4)
		var spilled []string
		cfg := store.Config{Dir: t.TempDir(), HotLimit: hotLimit, Shards: 2, WAL: true}
		s, err := store.Open(cfg, testCallbacks(&spilled))
		if err != nil {
			return false
		}
		defer s.Close()
		for i := 0; i < hotLimit; i++ {
			if err := s.Put(fmt.Sprintf("s%d", i), nil, &testVal{}); err != nil {
				return false
			}
		}
		// First eviction: every resident is referenced, so the hand burns
		// a full lap of second chances and evicts whoever it lands on.
		if err := s.Put("x", nil, &testVal{}); err != nil {
			return false
		}
		if len(spilled) != 1 {
			return false
		}
		// Touch one random survivor, then force one more eviction.
		var survivors []string
		s.EachHot(func(id string, v *testVal) bool {
			if id != "x" { // x's bit is fresh from its own insert
				survivors = append(survivors, id)
			}
			return true
		})
		sortStrings(survivors)
		touched := survivors[rng.Intn(len(survivors))]
		if _, ok, _, err := s.Get(touched); !ok || err != nil {
			return false
		}
		spilled = spilled[:0]
		if err := s.Put("y", nil, &testVal{}); err != nil {
			return false
		}
		for _, id := range spilled {
			if id == touched {
				t.Logf("seed %d: spilled %q immediately after it was touched", seed, id)
				return false
			}
		}
		return len(spilled) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sortStrings orders ids so the random survivor pick is a pure function
// of the seed (map iteration order is not).
func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// randomPredictorState builds a valid-but-arbitrary core.PredictorState:
// finite non-negative probabilities with a positive sum, a plausible
// explained window, and an arbitrary observation count.
func randomPredictorState(rng *rand.Rand) core.PredictorState {
	n := 1 + rng.Intn(8)
	st := core.PredictorState{
		Active:   make([]float64, n),
		Observed: rng.Intn(10_000),
	}
	sum := 0.0
	for i := range st.Active {
		// Mix magnitudes so the round-trip test covers subnormal-ish and
		// large values, not just uniform [0,1).
		v := rng.Float64() * math.Pow(10, float64(rng.Intn(13)-6))
		st.Active[i] = v
		sum += v
	}
	if sum <= 0 {
		st.Active[0] = 1
	}
	w := rng.Intn(6)
	st.Explained = make([]bool, w)
	for i := range st.Explained {
		st.Explained[i] = rng.Intn(2) == 1
	}
	return st
}

func statesBitIdentical(a, b core.PredictorState) bool {
	if len(a.Active) != len(b.Active) || a.Observed != b.Observed || len(a.Explained) != len(b.Explained) {
		return false
	}
	for i := range a.Active {
		if math.Float64bits(a.Active[i]) != math.Float64bits(b.Active[i]) {
			return false
		}
	}
	for i := range a.Explained {
		if a.Explained[i] != b.Explained[i] {
			return false
		}
	}
	return true
}

// TestPropSpillHydrateRoundTrip spills randomized PredictorState values
// through the real on-disk tier and requires the hydrated state to be
// bit-identical — the property that makes recovery's twin-replay
// comparison meaningful at all.
func TestPropSpillHydrateRoundTrip(t *testing.T) {
	type stateVal struct{ st core.PredictorState }
	cb := store.Callbacks[*stateVal]{
		Snapshot: func(id string, v *stateVal) ([]byte, uint64, error) {
			return encodeState(v.st), uint64(v.st.Observed), nil
		},
		Hydrate: func(id string, data []byte) (*stateVal, error) {
			st, err := decodeState(data)
			if err != nil {
				return nil, err
			}
			return &stateVal{st: st}, nil
		},
		Create: func(id string, data []byte) (*stateVal, error) {
			return &stateVal{}, nil
		},
		Replay: func(id string, v *stateVal, data []byte) (int, error) {
			return 0, nil
		},
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := store.Config{Dir: t.TempDir(), HotLimit: 1, Shards: 3, WAL: true}
		s, err := store.Open(cfg, cb)
		if err != nil {
			return false
		}
		defer s.Close()
		want := map[string]core.PredictorState{}
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("s%d", i)
			st := randomPredictorState(rng)
			want[id] = st
			if err := s.Put(id, nil, &stateVal{st: st}); err != nil {
				return false
			}
		}
		// HotLimit 1 forces all but the newest through a spill.
		for id, st := range want {
			v, ok, _, err := s.Get(id)
			if !ok || err != nil {
				t.Logf("seed %d: Get(%s): ok=%v err=%v", seed, id, ok, err)
				return false
			}
			if !statesBitIdentical(v.st, st) {
				t.Logf("seed %d: %s state not bit-identical across spill/hydrate", seed, id)
				return false
			}
		}
		return s.Stats().Spills > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// encodeState / decodeState give PredictorState a deterministic binary
// form for the round-trip property (float64s travel as IEEE-754 bits).
func encodeState(st core.PredictorState) []byte {
	b := appendUvarint(nil, uint64(len(st.Active)))
	for _, f := range st.Active {
		b = appendUint64(b, math.Float64bits(f))
	}
	b = appendUvarint(b, uint64(st.Observed))
	b = appendUvarint(b, uint64(len(st.Explained)))
	for _, e := range st.Explained {
		if e {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func decodeState(data []byte) (core.PredictorState, error) {
	var st core.PredictorState
	n, sz, err := readUvarint(data)
	if err != nil {
		return st, err
	}
	data = data[sz:]
	st.Active = make([]float64, n)
	for i := range st.Active {
		if len(data) < 8 {
			return st, fmt.Errorf("short active")
		}
		st.Active[i] = math.Float64frombits(readUint64(data))
		data = data[8:]
	}
	obs, sz, err := readUvarint(data)
	if err != nil {
		return st, err
	}
	st.Observed = int(obs)
	data = data[sz:]
	w, sz, err := readUvarint(data)
	if err != nil {
		return st, err
	}
	data = data[sz:]
	if uint64(len(data)) != w {
		return st, fmt.Errorf("short explained")
	}
	st.Explained = make([]bool, w)
	for i := range st.Explained {
		st.Explained[i] = data[i] == 1
	}
	return st, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func readUvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("bad uvarint")
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
