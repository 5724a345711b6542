//go:build !race

// Allocation ceiling for the exposition renderer. AllocsPerRun is meaningless
// under the race detector (it instruments allocations, and sync.Pool
// drops items at random), so this file is excluded from the -race run;
// verify.sh runs it in a separate non-race pass.

package obs

import (
	"io"
	"strconv"
	"testing"
)

// TestExpositionAllocs: rendering a CounterVec costs a constant number of
// allocations whatever its series count — no per-series or per-comparison
// garbage.
func TestExpositionAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{64, 4096} {
		reg := NewRegistry()
		v := reg.NewCounterVec("t_sessions_total", "Per session.", "session")
		for i := 0; i < n; i++ {
			v.With("s" + strconv.Itoa(i)).Add(int64(i))
		}
		reg.WriteText(io.Discard) // warm the pooled scratch
		counts = append(counts, testing.AllocsPerRun(20, func() { reg.WriteText(io.Discard) }))
	}
	if counts[0] > 2 || counts[1] != counts[0] {
		t.Fatalf("CounterVec render allocs: %v for 64 and 4,096 series, want the same constant <= 2", counts)
	}
}
