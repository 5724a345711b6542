package compiled

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"highorder/internal/bayes"
	"highorder/internal/classifier"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/synth"
	"highorder/internal/tree"
)

// The golden-equivalence suite (template: internal/cluster/golden_test.go):
// the compiled predictor must reproduce the interpreted core.Predictor
// bit for bit — predictions, full probability vectors, and post-observe
// portable state — across base learners, predictor options, batch sizes,
// and stream seeds. No tolerances anywhere: equality is math.Float64bits.

// sameFloat compares two float64s bit for bit.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Models are built once per process: the suite iterates many
// option/batch/seed combinations over the same immutable models.
var (
	modelOnce     sync.Once
	treeModel     *core.Model
	bayesModel    *core.Model
	rulesModel    *core.Model
	majorityModel *core.Model
	buildErr      error
	goldenHist    *data.Dataset
	goldenHist2   *data.Dataset
)

func buildModels() {
	goldenHist = synth.TakeDataset(synth.NewStagger(synth.StaggerConfig{Seed: 1}), 3000)
	goldenHist2 = synth.TakeDataset(synth.NewStagger(synth.StaggerConfig{Seed: 11}), 3000)

	opts := core.DefaultOptions()
	opts.Seed = 1
	treeModel, buildErr = core.Build(goldenHist, opts)
	if buildErr != nil {
		return
	}

	bopts := core.DefaultOptions()
	bopts.Seed = 1
	bopts.Learner = bayes.NewLearner()
	bayesModel, buildErr = core.Build(goldenHist, bopts)
	if buildErr != nil {
		return
	}

	mopts := core.DefaultOptions()
	mopts.Seed = 1
	mopts.Learner = classifier.MajorityLearner{}
	majorityModel, buildErr = core.Build(goldenHist, mopts)
	if buildErr != nil {
		return
	}

	// The rules model reuses the tree model's ensemble parameters (χ, Err)
	// with each concept's tree lowered to a C4.5rules-style rule set.
	rm := &core.Model{
		Schema:      treeModel.Schema,
		Concepts:    append([]core.Concept(nil), treeModel.Concepts...),
		Chi:         treeModel.Chi,
		Occurrences: treeModel.Occurrences,
	}
	for i := range rm.Concepts {
		t, ok := rm.Concepts[i].Model.(*tree.Tree)
		if !ok {
			buildErr = fmt.Errorf("concept %d is %T, not a tree", i, rm.Concepts[i].Model)
			return
		}
		rm.Concepts[i].Model = t.ExtractRules(goldenHist2, 0.25)
	}
	rulesModel = rm
}

func goldenModels(t testing.TB) map[string]*core.Model {
	t.Helper()
	modelOnce.Do(buildModels)
	if buildErr != nil {
		t.Fatalf("building golden models: %v", buildErr)
	}
	models := map[string]*core.Model{"tree": treeModel, "bayes": bayesModel, "rules": rulesModel, "majority": majorityModel}
	// Vacuousness guards: a single-concept model would make the pruning
	// loop, the χ update, and the MAP tracking all trivial.
	for name, m := range models {
		if len(m.Concepts) < 2 {
			t.Fatalf("%s model has %d concepts; the equivalence run would be vacuous", name, len(m.Concepts))
		}
	}
	return models
}

// checkStateEqual compares the two predictors' portable snapshots bit for
// bit.
func checkStateEqual(t *testing.T, ip *core.Predictor, cp *Predictor, ctx string) {
	t.Helper()
	is, cs := ip.Snapshot(), cp.Snapshot()
	if !sameFloats(is.Active, cs.Active) {
		t.Fatalf("%s: active probabilities diverged\ninterpreted: %v\ncompiled:    %v", ctx, is.Active, cs.Active)
	}
	if is.Observed != cs.Observed {
		t.Fatalf("%s: observed %d vs %d", ctx, is.Observed, cs.Observed)
	}
	if len(is.Explained) != len(cs.Explained) {
		t.Fatalf("%s: explained window %d vs %d", ctx, len(is.Explained), len(cs.Explained))
	}
	for i := range is.Explained {
		if is.Explained[i] != cs.Explained[i] {
			t.Fatalf("%s: explained[%d] %v vs %v", ctx, i, is.Explained[i], cs.Explained[i])
		}
	}
}

func TestGoldenEquivalence(t *testing.T) {
	models := goldenModels(t)
	optVariants := map[string]core.PredictorOptions{
		"default":   {},
		"maponly":   {MAPOnly: true},
		"nopruning": {DisablePruning: true},
	}
	for mname, m := range models {
		cm, err := Compile(m)
		if err != nil {
			t.Fatalf("%s: compile: %v", mname, err)
		}
		for oname, opts := range optVariants {
			for _, batch := range []int{1, 7, 64} {
				for _, seed := range []int64{2, 3} {
					name := fmt.Sprintf("%s/%s/batch%d/seed%d", mname, oname, batch, seed)
					t.Run(name, func(t *testing.T) {
						runEquivalenceStream(t, m, cm, opts, batch, seed)
					})
				}
			}
		}
	}
}

// runEquivalenceStream drives both predictors through an identical
// test-then-train stream, comparing every output bit for bit.
func runEquivalenceStream(t *testing.T, m *core.Model, cm *Model, opts core.PredictorOptions, batch int, seed int64) {
	g := synth.NewStagger(synth.StaggerConfig{Seed: seed, Lambda: 0.02})
	ip := m.NewPredictorWithOptions(opts)
	cp := cm.NewPredictor(opts)

	const total = 600
	preds := make([]int, batch)
	recs := make([]data.Record, 0, batch)
	step := 0
	for done := 0; done < total; {
		n := min(batch, total-done)
		recs = recs[:0]
		for i := 0; i < n; i++ {
			recs = append(recs, g.Next().Record)
		}
		// Classify phase: per-record prediction and full distribution.
		for i, r := range recs {
			x := data.Record{Values: r.Values}
			id := ip.PredictProba(x)
			cd := cp.PredictProba(x)
			if !sameFloats(id, cd) {
				t.Fatalf("step %d rec %d: PredictProba diverged\ninterpreted: %v\ncompiled:    %v", step, i, id, cd)
			}
			if iw, cw := ip.Predict(x), cp.Predict(x); iw != cw {
				t.Fatalf("step %d rec %d: Predict %d vs %d", step, i, iw, cw)
			}
		}
		// Batch kernel: bit-identical to per-record Predict.
		cp.ClassifyBatch(recs, preds[:n])
		for i, r := range recs {
			if want := ip.Predict(data.Record{Values: r.Values}); preds[i] != want {
				t.Fatalf("step %d rec %d: ClassifyBatch %d vs interpreted %d", step, i, preds[i], want)
			}
		}
		// Train phase.
		for _, r := range recs {
			ip.Observe(r)
			cp.Observe(r)
		}
		ic, iprob := ip.CurrentConcept()
		cc, cprob := cp.CurrentConcept()
		if ic != cc || !sameFloat(iprob, cprob) {
			t.Fatalf("step %d: CurrentConcept (%d, %v) vs (%d, %v)", step, ic, iprob, cc, cprob)
		}
		ir, ifull := ip.RecentExplainedRate()
		cr, cfull := cp.RecentExplainedRate()
		if !sameFloat(ir, cr) || ifull != cfull {
			t.Fatalf("step %d: RecentExplainedRate (%v, %v) vs (%v, %v)", step, ir, ifull, cr, cfull)
		}
		if !sameFloats(ip.PriorProbabilities(), cp.PriorProbabilities()) {
			t.Fatalf("step %d: priors diverged", step)
		}
		checkStateEqual(t, ip, cp, fmt.Sprintf("step %d", step))
		// Exercise label-free time advance periodically (§III-B).
		if step%5 == 4 {
			ip.AdvanceTime(2)
			cp.AdvanceTime(2)
			checkStateEqual(t, ip, cp, fmt.Sprintf("step %d (advanced)", step))
		}
		done += n
		step++
	}

	// Cross-restore: interpreted state into a fresh compiled predictor and
	// vice versa, then continue streaming — restored twins must stay
	// bit-identical.
	ip2 := m.NewPredictorWithOptions(opts)
	cp2 := cm.NewPredictor(opts)
	if err := cp2.Restore(ip.Snapshot()); err != nil {
		t.Fatalf("restore interpreted snapshot into compiled: %v", err)
	}
	if err := ip2.Restore(cp.Snapshot()); err != nil {
		t.Fatalf("restore compiled snapshot into interpreted: %v", err)
	}
	for i := 0; i < 40; i++ {
		r := g.Next().Record
		x := data.Record{Values: r.Values}
		if !sameFloats(ip2.PredictProba(x), cp2.PredictProba(x)) {
			t.Fatalf("post-restore rec %d: PredictProba diverged", i)
		}
		if ip2.Predict(x) != cp2.Predict(x) {
			t.Fatalf("post-restore rec %d: Predict diverged", i)
		}
		ip2.Observe(r)
		cp2.Observe(r)
	}
	checkStateEqual(t, ip2, cp2, "post-restore")
}

// TestCompileRejectsUnsupportedClassifier proves the fallback contract:
// a classifier kind the compiler does not understand is an error, not a
// silently wrong table.
func TestCompileRejectsUnsupportedClassifier(t *testing.T) {
	m := &core.Model{
		Schema: synth.StaggerSchema(),
		Concepts: []core.Concept{
			{Model: unsupportedClassifier{}, Err: 0.1},
		},
		Chi: [][]float64{{1}},
	}
	if _, err := Compile(m); err == nil {
		t.Fatal("Compile accepted an unsupported classifier")
	}
}

type unsupportedClassifier struct{}

// TestCompileRejectsMisSizedMajority: a Majority distribution that does
// not match the schema's classes is an error, as for the other types.
func TestCompileRejectsMisSizedMajority(t *testing.T) {
	m := &core.Model{
		Schema: synth.StaggerSchema(),
		Concepts: []core.Concept{
			{Model: classifier.NewMajority(0, []float64{1}), Err: 0.1},
		},
		Chi: [][]float64{{1}},
	}
	if _, err := Compile(m); err == nil {
		t.Fatal("Compile accepted a mis-sized Majority distribution")
	}
}

func (unsupportedClassifier) Predict(data.Record) int            { return 0 }
func (unsupportedClassifier) PredictProba(data.Record) []float64 { return []float64{1, 0} }

// TestRestoreValidation mirrors core.Predictor.Restore's refusals.
func TestRestoreValidation(t *testing.T) {
	models := goldenModels(t)
	cm, err := Compile(models["tree"])
	if err != nil {
		t.Fatal(err)
	}
	cp := cm.NewPredictor(core.PredictorOptions{})
	bad := []core.PredictorState{
		{Active: []float64{1}, Observed: 0},
		{Active: make([]float64, cm.NumConcepts()), Observed: 0},
		{Active: negFirst(cm.NumConcepts()), Observed: 0},
		{Active: uniform(cm.NumConcepts()), Observed: -1},
		{Active: uniform(cm.NumConcepts()), Observed: 0, Explained: make([]bool, core.ExplainWindow+1)},
	}
	for i, st := range bad {
		if err := cp.Restore(st); err == nil {
			t.Fatalf("bad state %d accepted", i)
		}
	}
	// A refused restore must leave the predictor untouched.
	before := cp.Snapshot()
	_ = cp.Restore(core.PredictorState{Active: []float64{1}})
	after := cp.Snapshot()
	if !sameFloats(before.Active, after.Active) || before.Observed != after.Observed {
		t.Fatal("failed restore mutated the predictor")
	}
}

func uniform(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}

func negFirst(n int) []float64 {
	out := uniform(n)
	out[0] = -out[0]
	return out
}
