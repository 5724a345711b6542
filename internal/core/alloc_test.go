//go:build !race

// Allocation ceilings for the classify hot path over the model's own
// classifiers, the evaluator NewPredictor uses (internal/compiled holds
// its tables to zero allocations too). AllocsPerRun is meaningless under
// the race detector, so this file is excluded from the -race run;
// verify.sh runs it in a separate non-race pass.

package core

import (
	"testing"

	"highorder/internal/bayes"
	"highorder/internal/data"
	"highorder/internal/synth"
)

func allocModel(t *testing.T, learner func() Options) *Model {
	t.Helper()
	hist := synth.TakeDataset(synth.NewStagger(synth.StaggerConfig{Seed: 1}), 3000)
	m, err := Build(hist, learner())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Concepts) < 2 {
		t.Fatalf("model has %d concepts; the pruning loop would be vacuous", len(m.Concepts))
	}
	return m
}

func treeOptions() Options {
	o := DefaultOptions()
	o.Seed = 1
	return o
}

func bayesOptions() Options {
	o := DefaultOptions()
	o.Seed = 1
	o.Learner = bayes.NewLearner()
	return o
}

// TestPredictAllocs holds Predict, PredictProba and ClassifyBatch over the
// model's own classifiers to zero allocations for both base learners: the
// tree walk answers node-owned distributions, the bayes evaluator writes
// into its reused buffer, and the predictor accumulates into its own
// preallocated state.
func TestPredictAllocs(t *testing.T) {
	cases := map[string]func() Options{
		"tree":  treeOptions,
		"bayes": bayesOptions,
	}
	for name, opts := range cases {
		m := allocModel(t, opts)
		p := m.NewPredictorWithOptions(PredictorOptions{})
		g := synth.NewStagger(synth.StaggerConfig{Seed: 9})
		for i := 0; i < 128; i++ {
			p.Observe(g.Next().Record)
		}
		r := data.Record{Values: g.Next().Record.Values}
		if avg := testing.AllocsPerRun(200, func() { _ = p.Predict(r) }); avg > 0 {
			t.Errorf("%s: Predict allocates %.1f objects per record, want 0", name, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { _ = p.PredictProba(r) }); avg > 0 {
			t.Errorf("%s: PredictProba allocates %.1f objects per record, want 0", name, avg)
		}
		recs := synth.TakeDataset(g, 64).Records
		preds := make([]int, len(recs))
		if avg := testing.AllocsPerRun(100, func() { p.ClassifyBatch(recs, preds) }); avg > 0 {
			t.Errorf("%s: ClassifyBatch allocates %.1f objects per batch, want 0", name, avg)
		}
	}
}
