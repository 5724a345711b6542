//go:build !race

// Allocation ceilings for the JSON request decoder and the per-request
// session lookup, and the heap bound per hot session. AllocsPerRun and
// heap deltas are meaningless under the race detector (it instruments
// allocations, and sync.Pool drops items at random), so this file is
// excluded from the -race run; verify.sh runs it in a separate non-race
// pass.

package serve

import (
	"bytes"
	"runtime"
	"testing"

	"highorder/internal/core"
)

// TestJSONDecodeAllocs pins the decoder's allocations: reading the body
// into warm scratch and decoding it costs the request's own slices — the
// flat value array and the record headers, plus the classes on observe —
// whatever the record count.
func TestJSONDecodeAllocs(t *testing.T) {
	var sc jsonScratch
	var rd bytes.Reader
	for _, n := range []int{16, 1024} {
		cbody, obody := seaBodies(n)
		classify := testing.AllocsPerRun(100, func() {
			rd.Reset(cbody)
			if err := sc.readBody(&rd, int64(len(cbody))); err != nil {
				t.Fatal(err)
			}
			if _, err := decodeClassifyJSON(sc.body, &sc); err != nil {
				t.Fatal(err)
			}
		})
		observe := testing.AllocsPerRun(100, func() {
			rd.Reset(obody)
			if err := sc.readBody(&rd, -1); err != nil {
				t.Fatal(err)
			}
			if _, err := decodeObserveJSON(sc.body, &sc); err != nil {
				t.Fatal(err)
			}
		})
		if classify > 2 || observe > 3 {
			t.Errorf("%d records: classify decode %.0f allocs (ceiling 2), observe decode %.0f allocs (ceiling 3)", n, classify, observe)
		}
	}
}

// TestSessionGetAllocs pins the per-request session lookup: resolving a
// hot session allocates nothing, over a memory-only or a tiered store.
func TestSessionGetAllocs(t *testing.T) {
	for name, tier := range map[string]TierOptions{
		"memory-only": {},
		"tiered":      {SpillDir: t.TempDir(), WAL: true},
	} {
		s, err := NewTiered(testModel(), Options{Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := s.table.create(core.PredictorOptions{}, "")
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := s.table.get(sess.ID()); !ok {
				t.Fatalf("%s: hot session not found", name)
			}
		})
		s.Close()
		if allocs != 0 {
			t.Errorf("%s: sessionTable.get of a hot session makes %.0f allocs, want 0", name, allocs)
		}
	}
}

// TestHotSessionHeapBound pins the heap a hot session costs: the bound
// doc.go states, 1 KiB per fresh session on the two-concept test model,
// whether the store is memory-only or tiered with every session hot.
func TestHotSessionHeapBound(t *testing.T) {
	const (
		sessions = 20000
		bound    = 1024 // bytes of live heap per hot session
	)
	for _, tc := range []struct {
		name string
		tier TierOptions
	}{
		{"memory-only", TierOptions{}},
		{"tiered", TierOptions{SpillDir: t.TempDir(), HotSessions: sessions}},
	} {
		s, err := NewTiered(testModel(), Options{MaxSessions: sessions, Tier: tc.tier})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < sessions; i++ {
			if _, err := s.table.create(core.PredictorOptions{}, ""); err != nil {
				t.Fatalf("%s: create %d: %v", tc.name, i, err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if n := s.table.live(); n != sessions {
			t.Fatalf("%s: %d live sessions, want %d", tc.name, n, sessions)
		}
		s.Close()
		perSession := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / sessions
		t.Logf("%s: %.0f B of heap per hot session (bound %d)", tc.name, perSession, bound)
		if perSession > bound {
			t.Errorf("%s: a hot session holds %.0f B of heap, bound is %d", tc.name, perSession, bound)
		}
	}
}
