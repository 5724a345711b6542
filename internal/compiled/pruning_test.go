package compiled

import (
	"testing"

	"highorder/internal/classifier"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/synth"
)

// countingClassifier counts the class distributions asked of a concept.
type countingClassifier struct {
	classifier.Classifier
	dists *int
}

func (c countingClassifier) PredictProba(x data.Record) []float64 {
	*c.dists++
	return c.Classifier.PredictProba(x)
}

// countingEvaluator counts the concept evaluations a predictor makes.
type countingEvaluator struct {
	core.ConceptEvaluator
	dists, predicts int
}

func (e *countingEvaluator) ConceptPredict(c int, x data.Record, scratch []float64) int {
	e.predicts++
	return e.ConceptEvaluator.ConceptPredict(c, x, scratch)
}

func (e *countingEvaluator) ConceptDist(c int, x data.Record, scratch []float64) []float64 {
	e.dists++
	return e.ConceptEvaluator.ConceptDist(c, x, scratch)
}

// TestPruningWorkMatchesOracle pins the work §III-C pruning saves, which
// predictions alone cannot show: they come out the same in any
// enumeration order, and only the number of concepts consulted grows. The
// predictor caches its pruning order while the prior is valid; the oracle
// sorts on every Predict. Record for record, over observes, label-free
// advances and a restore, the predictor must consult exactly as many
// concepts as the oracle, and each observe must evaluate every concept
// exactly once.
func TestPruningWorkMatchesOracle(t *testing.T) {
	m := goldenModels(t)["tree"]
	cm, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	var oracleDists int
	counted := *m
	counted.Concepts = append([]core.Concept(nil), m.Concepts...)
	for i := range counted.Concepts {
		counted.Concepts[i].Model = countingClassifier{Classifier: m.Concepts[i].Model, dists: &oracleDists}
	}
	n := len(m.Concepts)
	for _, ev := range []struct {
		name string
		ev   core.ConceptEvaluator
	}{{"classifiers", m.NewPredictor().Concepts()}, {"compiled", cm}} {
		t.Run(ev.name, func(t *testing.T) {
			ce := &countingEvaluator{ConceptEvaluator: ev.ev}
			p := m.NewPredictorOver(ce, core.PredictorOptions{})
			o := newOracle(&counted, core.PredictorOptions{})
			g := synth.NewStagger(synth.StaggerConfig{Seed: 2, Lambda: 0.02})
			const total = 2000
			var saved core.PredictorState
			consulted := 0
			preds := make([]int, 8)
			for i := 0; i < total; i++ {
				r := g.Next().Record
				before, oracleBefore := ce.dists, oracleDists
				if got, want := p.Predict(r), o.Predict(r); got != want {
					t.Fatalf("record %d: Predict %d, oracle %d", i, got, want)
				}
				if got, want := ce.dists-before, oracleDists-oracleBefore; got != want {
					t.Fatalf("record %d: Predict consulted %d concepts, oracle %d", i, got, want)
				}
				consulted += ce.dists - before
				// Every eighth record, a batch of that record repeated:
				// the same count eight times over.
				if i%8 == 0 {
					batch := []data.Record{r, r, r, r, r, r, r, r}
					before, oracleBefore = ce.dists, oracleDists
					p.ClassifyBatch(batch, preds)
					for range batch {
						o.Predict(r)
					}
					if got, want := ce.dists-before, oracleDists-oracleBefore; got != want {
						t.Fatalf("record %d: ClassifyBatch consulted %d concepts, oracle %d", i, got, want)
					}
				}
				before = ce.predicts
				p.Observe(r)
				o.Observe(r)
				if got := ce.predicts - before; got != n {
					t.Fatalf("record %d: Observe evaluated %d concepts, want each of %d once", i, got, n)
				}
				switch {
				case i%97 == 96:
					p.AdvanceTime(3)
					o.AdvanceTime(3)
				case i == total/4:
					saved = o.Snapshot()
				case i == total/2:
					if err := p.Restore(saved); err != nil {
						t.Fatal(err)
					}
					if err := o.Restore(saved); err != nil {
						t.Fatal(err)
					}
				}
			}
			t.Logf("%.3f concept evaluations per Predict", float64(consulted)/total)
		})
	}
}
