//go:build !race

// Allocation ceilings for the JSON request decoder. AllocsPerRun is
// meaningless under the race detector (it instruments allocations, and
// sync.Pool drops items at random), so this file is excluded from the
// -race run; verify.sh runs it in a separate non-race pass.

package serve

import (
	"bytes"
	"testing"
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
