package core_test

import (
	"bytes"
	"testing"
	"time"

	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/dataio"
	"highorder/internal/synth"
)

// TestBuildBytesIndependentOfWorkers requires the persisted model to be
// byte-identical at 1, 2 and 8 workers, on a frozen clock so the build
// time is zero. It covers what the clustering tests do not: the concept
// models retrained in parallel after the clustering, on a numeric (SEA)
// and a nominal (Stagger) history with at least three concepts each.
func TestBuildBytesIndependentOfWorkers(t *testing.T) {
	for _, h := range []struct {
		name string
		d    *data.Dataset
	}{
		{"sea", synth.TakeDataset(synth.NewSEA(synth.SEAConfig{Seed: 3, Lambda: 0.002}), 8000)},
		{"stagger", synth.TakeDataset(synth.NewStagger(synth.StaggerConfig{Seed: 4}), 8000)},
	} {
		t.Run(h.name, func(t *testing.T) {
			var want []byte
			for _, workers := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Seed = 5
				opts.Workers = workers
				opts.Clock = clock.NewFake(time.Unix(0, 0)).Clock()
				m, err := core.Build(h.d, opts)
				if err != nil {
					t.Fatal(err)
				}
				if m.NumConcepts() < 3 {
					t.Fatalf("workers=%d: %d concepts, want at least 3 so the retrain runs in parallel", workers, m.NumConcepts())
				}
				var buf bytes.Buffer
				if err := dataio.WriteModel(&buf, m); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("workers=%d: the persisted model differs from the one built at 1 worker", workers)
				}
			}
		})
	}
}
