//go:build !race

// Allocation ceilings for the JSON request decoder and the per-request
// session lookup. AllocsPerRun is
// meaningless under the race detector (it instruments allocations, and
// sync.Pool drops items at random), so this file is excluded from the
// -race run; verify.sh runs it in a separate non-race pass.

package serve

import (
	"bytes"
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
