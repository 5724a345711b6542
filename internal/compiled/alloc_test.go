//go:build !race

// Allocation ceilings and the records/s floor for the compiled classify
// hot path. AllocsPerRun is meaningless under the race detector (it
// instruments allocations) and the throughput floor would be vacuous
// there, so this file is excluded from the -race run; verify.sh runs it
// in a separate non-race pass.

package compiled

import (
	"testing"
	"time"

	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/synth"
)

// benchRecords draws a fixed classify workload from the stagger stream.
func benchRecords(n int) []data.Record {
	g := synth.NewStagger(synth.StaggerConfig{Seed: 42, Lambda: 0.02})
	recs := make([]data.Record, n)
	for i := range recs {
		recs[i] = g.Next().Record
	}
	return recs
}

// TestClassifyBatchAllocs holds the batch classify kernel to zero
// allocations per call — the whole point of the predictor's one backing
// array and the arena-backed distributions — for all three compiled base
// learners.
func TestClassifyBatchAllocs(t *testing.T) {
	recs := benchRecords(64)
	preds := make([]int, len(recs))
	for name, m := range goldenModels(t) {
		cm, err := Compile(m)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		p := cm.NewPredictor(core.PredictorOptions{})
		// Warm the predictor so the lazily derived prior exists.
		p.ClassifyBatch(recs, preds)
		avg := testing.AllocsPerRun(100, func() {
			p.ClassifyBatch(recs, preds)
		})
		if avg > 0 {
			t.Errorf("%s: ClassifyBatch allocates %.1f objects per batch, want 0", name, avg)
		}
	}
}

// TestClassifyBatchThroughput is the records/s floor verify.sh enforces:
// the compiled tree predictor must sustain at least 1M records per second
// on one core.
// The measurement drives the same ClassifyBatch kernel the serve layer
// calls, over a post-observe predictor with a concentrated prior, so the
// pruning fast path is representative of steady-state serving.
func TestClassifyBatchThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput floor skipped in -short mode")
	}
	const floor = 1e6
	m := goldenModels(t)["tree"]
	cm, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	p := cm.NewPredictor(core.PredictorOptions{})
	recs := benchRecords(2048)
	preds := make([]int, len(recs))
	for _, r := range recs[:128] {
		p.Observe(r)
	}
	// Warmup, then measure for a fixed wall-clock window.
	p.ClassifyBatch(recs, preds)
	const window = 300 * time.Millisecond
	var done int64
	start := time.Now()              //homlint:allow determinism -- wall-clock throughput measurement is the point of this gate
	for time.Since(start) < window { //homlint:allow determinism -- see above
		p.ClassifyBatch(recs, preds)
		done += int64(len(recs))
	}
	rps := float64(done) / time.Since(start).Seconds() //homlint:allow determinism -- see above
	t.Logf("compiled ClassifyBatch: %.0f records/s (floor %.0f)", rps, floor)
	if rps < floor {
		t.Fatalf("compiled ClassifyBatch sustained %.0f records/s, floor is %.0f", rps, floor)
	}
}

// BenchmarkClassifyBatch reports the compiled batch kernel's throughput
// per base learner; records/s is the headline number in README.md.
func BenchmarkClassifyBatch(b *testing.B) {
	recs := benchRecords(2048)
	preds := make([]int, len(recs))
	for _, name := range []string{"tree", "bayes"} {
		m := goldenModels(b)[name]
		cm, err := Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			p := cm.NewPredictor(core.PredictorOptions{})
			for _, r := range recs[:128] {
				p.Observe(r)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ClassifyBatch(recs, preds)
			}
			b.ReportMetric(float64(b.N)*float64(len(recs))/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkInterpretedPredict is the baseline the compiled kernel is
// measured against: the same predictor evaluating each concept with the
// model's own classifiers, over the same workload.
func BenchmarkInterpretedPredict(b *testing.B) {
	recs := benchRecords(2048)
	for _, name := range []string{"tree", "bayes"} {
		m := goldenModels(b)[name]
		b.Run(name, func(b *testing.B) {
			p := m.NewPredictorWithOptions(core.PredictorOptions{})
			for _, r := range recs[:128] {
				p.Observe(r)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range recs {
					_ = p.Predict(r)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(recs))/b.Elapsed().Seconds(), "records/s")
		})
	}
}
