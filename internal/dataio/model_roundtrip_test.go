package dataio

import (
	"bytes"
	"math"
	"os"
	"testing"

	"highorder/internal/bayes"
	"highorder/internal/classifier"
	"highorder/internal/compiled"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/synth"
	"highorder/internal/tree"
)

// TestModelRoundTripCompiled persists a built model of every generator with every
// base learner, reads it back, compiles it, and requires the compiled
// predictor to predict and observe bit-identically to the in-memory
// model's own predictor over the generator's next records. The Intrusion
// tree is the history of genstream -stream intrusion -n 3000 -seed 1 and
// homtrain -seed 1: its nominal splits leave branches no training record
// reached, which gob cannot encode as nil children.
func TestModelRoundTripCompiled(t *testing.T) {
	gens := []struct {
		name string
		mk   func() synth.Stream
		n    int
	}{
		{"stagger", func() synth.Stream { return synth.NewStagger(synth.StaggerConfig{Seed: 1}) }, 2000},
		{"hyperplane", func() synth.Stream { return synth.NewHyperplane(synth.HyperplaneConfig{Seed: 1}) }, 2000},
		{"sea", func() synth.Stream { return synth.NewSEA(synth.SEAConfig{Seed: 1}) }, 2000},
		{"intrusion", func() synth.Stream { return synth.NewIntrusion(synth.IntrusionConfig{Seed: 1}) }, 3000},
	}
	learners := []struct {
		name string
		l    classifier.Learner
	}{
		{"tree", tree.NewLearner()},
		{"bayes", bayes.NewLearner()},
		{"majority", classifier.MajorityLearner{}},
	}
	for _, g := range gens {
		for _, l := range learners {
			t.Run(g.name+"/"+l.name, func(t *testing.T) {
				s := g.mk()
				hist := synth.TakeDataset(s, g.n)
				next := synth.TakeDataset(s, 1000)
				opts := core.DefaultOptions()
				opts.Learner = l.l
				opts.Seed = 1
				m, err := core.Build(hist, opts)
				if err != nil {
					t.Fatal(err)
				}
				unseen := unseenBranches(m)
				if g.name == "intrusion" && l.name == "tree" && unseen == 0 {
					t.Fatal("the Intrusion tree has no unseen branch; the test would pass without the marker")
				}
				var buf bytes.Buffer
				if err := WriteModel(&buf, m); err != nil {
					t.Fatal(err)
				}
				if got := unseenBranches(m); got != unseen {
					t.Fatalf("WriteModel changed the model: %d unseen branches, was %d", got, unseen)
				}
				back, err := ReadModel(&buf, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := unseenBranches(back); got != unseen {
					t.Fatalf("read back %d unseen branches, wrote %d", got, unseen)
				}
				assertSamePredictor(t, m, back, next)
			})
		}
	}
}

// TestReadModelV1 loads a version-1 file, written before the unseen-branch
// marker existed (testdata/model_v1.gob: 2,000 Stagger records, tree
// learner, stream and build seed 1), and requires it to predict and
// observe like the same build in memory.
func TestReadModelV1(t *testing.T) {
	raw, err := os.ReadFile("testdata/model_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	if v := raw[len(modelMagic)]; v != 1 {
		t.Fatalf("fixture is format version %d, want 1", v)
	}
	var warn bytes.Buffer
	back, err := ReadModel(bytes.NewReader(raw), &warn)
	if err != nil {
		t.Fatal(err)
	}
	if warn.Len() != 0 {
		t.Fatalf("version-1 read emitted a warning: %q", warn.String())
	}
	s := synth.NewStagger(synth.StaggerConfig{Seed: 1})
	hist := synth.TakeDataset(s, 2000)
	opts := core.DefaultOptions()
	opts.Learner = tree.NewLearner()
	opts.Seed = 1
	m, err := core.Build(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictor(t, m, back, synth.TakeDataset(s, 1000))
}

// assertSamePredictor runs want's own predictor and a predictor over the
// compiled got test-then-train over next, and requires bit-identical
// predictions, distributions and active probabilities.
func assertSamePredictor(t *testing.T, want, got *core.Model, next *data.Dataset) {
	t.Helper()
	cm, err := compiled.Compile(got)
	if err != nil {
		t.Fatal(err)
	}
	pw, pg := want.NewPredictor(), cm.NewPredictor(core.PredictorOptions{})
	for i, r := range next.Records {
		if a, b := pw.Predict(r), pg.Predict(r); a != b {
			t.Fatalf("record %d: read-back predictor says %d, in-memory %d", i, b, a)
		}
		if a, b := pw.PredictProba(r), pg.PredictProba(r); !sameBits(a, b) {
			t.Fatalf("record %d: read-back distribution %v, in-memory %v", i, b, a)
		}
		pw.Observe(r)
		pg.Observe(r)
		if a, b := pw.ActiveProbabilities(), pg.ActiveProbabilities(); !sameBits(a, b) {
			t.Fatalf("record %d: read-back active probabilities %v, in-memory %v", i, b, a)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// unseenBranches counts the nil children of m's trees.
func unseenBranches(m *core.Model) int {
	n := 0
	var walk func(*tree.Node)
	walk = func(nd *tree.Node) {
		for _, c := range nd.Children {
			if c == nil {
				n++
			} else {
				walk(c)
			}
		}
	}
	for _, c := range m.Concepts {
		if tr, ok := c.Model.(*tree.Tree); ok {
			walk(tr.Root)
		}
	}
	return n
}
