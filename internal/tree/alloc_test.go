//go:build !race

// Allocation ceiling for the grower. AllocsPerRun is meaningless under the
// race detector (it instruments allocations, and sync.Pool drops items at
// random), so this file is excluded from the -race run; verify.sh runs it
// in a separate non-race pass.

package tree

import (
	"testing"

	"highorder/internal/synth"
)

// TestTrainAllocs pins the grower's allocations: beyond a small constant
// (the grower, the Tree, an occasional scratch refill after a GC empties
// the pool), only the grown nodes allocate — each its Node and Dist, and
// each internal node its Children.
func TestTrainAllocs(t *testing.T) {
	d := synth.TakeDataset(synth.NewSEA(synth.SEAConfig{Seed: 13, Noise: 0.1}), 2000)
	l := &Learner{Opts: Options{Confidence: 1}}
	c, err := l.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.(*Tree)
	internal := tr.Size() - tr.Leaves()
	ceiling := float64(2*tr.Size()+internal) + 4
	got := testing.AllocsPerRun(20, func() {
		if _, err := l.Train(d); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("Train allocates %.0f per call, want <= %.0f (%d nodes, %d internal)", got, ceiling, tr.Size(), internal)
	}
}
