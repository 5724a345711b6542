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
	"highorder/internal/obs"
	"highorder/internal/synth"
	"highorder/internal/tree"
)

// The golden-equivalence suite (template: internal/cluster/golden_test.go):
// core.Predictor, evaluating its concepts from the compiled tables and
// from the model's own classifiers, must reproduce the test-only oracle
// (oracle_test.go) bit for bit — predictions, full probability vectors,
// post-observe portable state and sink events — across base learners,
// predictor options, batch sizes, and stream seeds. No tolerances
// anywhere: equality is math.Float64bits.

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
	// with each concept's tree lowered to a C4.5rules-style rule set: a
	// classifier the compiler does not know, which only the classifiers
	// evaluator runs.
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

// goldenModels returns the compilable golden models: one per learner
// internal/dataio can load.
func goldenModels(t testing.TB) map[string]*core.Model {
	t.Helper()
	modelOnce.Do(buildModels)
	if buildErr != nil {
		t.Fatalf("building golden models: %v", buildErr)
	}
	models := map[string]*core.Model{"tree": treeModel, "bayes": bayesModel, "majority": majorityModel}
	// Vacuousness guards: a single-concept model would make the pruning
	// loop, the χ update, and the MAP tracking all trivial.
	for name, m := range models {
		if len(m.Concepts) < 2 {
			t.Fatalf("%s model has %d concepts; the equivalence run would be vacuous", name, len(m.Concepts))
		}
	}
	return models
}

// equivalenceModels returns the golden models plus the rules model.
func equivalenceModels(t testing.TB) map[string]*core.Model {
	models := goldenModels(t)
	models["rules"] = rulesModel
	return models
}

// evaluator names one way to build the production predictor over a model.
type evaluator struct {
	name string
	new  func(core.PredictorOptions) *core.Predictor
}

// evaluators returns the production predictor over m's own classifiers
// and, when m compiles, over its compiled tables. Only the rules model
// must fail to compile.
func evaluators(t testing.TB, name string, m *core.Model) []evaluator {
	t.Helper()
	evs := []evaluator{{"classifiers", m.NewPredictorWithOptions}}
	cm, err := Compile(m)
	switch {
	case name == "rules":
		if err == nil {
			t.Fatal("Compile accepted a model of rule sets")
		}
	case err != nil:
		t.Fatalf("%s: compile: %v", name, err)
	default:
		evs = append(evs, evaluator{"compiled", cm.NewPredictor})
	}
	return evs
}

// checkStateEqual compares the oracle's and the predictor's portable
// snapshots bit for bit.
func checkStateEqual(t *testing.T, ip *oracle, cp *core.Predictor, ctx string) {
	t.Helper()
	is, cs := ip.Snapshot(), cp.Snapshot()
	if !sameFloats(is.Active, cs.Active) {
		t.Fatalf("%s: active probabilities diverged\noracle:    %v\npredictor: %v", ctx, is.Active, cs.Active)
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
	optVariants := map[string]core.PredictorOptions{
		"default":   {},
		"maponly":   {MAPOnly: true},
		"nopruning": {DisablePruning: true},
	}
	for mname, m := range equivalenceModels(t) {
		evs := evaluators(t, mname, m)
		for oname, opts := range optVariants {
			for _, batch := range []int{1, 7, 64} {
				for _, seed := range []int64{2, 3} {
					name := fmt.Sprintf("%s/%s/batch%d/seed%d", mname, oname, batch, seed)
					t.Run(name, func(t *testing.T) {
						for _, ev := range evs {
							t.Run(ev.name, func(t *testing.T) {
								runEquivalenceStream(t, m, ev.new, opts, batch, seed)
							})
						}
					})
				}
			}
		}
	}
}

// recordSink keeps every predictor event.
func recordSink(evs *[]obs.PredictorEvent) obs.PredictorSink {
	return obs.FuncSink(func(ev obs.PredictorEvent) { *evs = append(*evs, ev) })
}

// runEquivalenceStream drives the oracle and the predictor newPred builds
// through an identical test-then-train stream, comparing every output bit
// for bit.
func runEquivalenceStream(t *testing.T, m *core.Model, newPred func(core.PredictorOptions) *core.Predictor, opts core.PredictorOptions, batch int, seed int64) {
	g := synth.NewStagger(synth.StaggerConfig{Seed: seed, Lambda: 0.02})
	ip := newOracle(m, opts)
	cp := newPred(opts)
	var iev, cev []obs.PredictorEvent
	ip.SetSink(recordSink(&iev))
	cp.SetSink(recordSink(&cev))

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
				t.Fatalf("step %d rec %d: PredictProba diverged\noracle:    %v\npredictor: %v", step, i, id, cd)
			}
			if iw, cw := ip.Predict(x), cp.Predict(x); iw != cw {
				t.Fatalf("step %d rec %d: Predict %d vs %d", step, i, iw, cw)
			}
		}
		// Batch kernel: bit-identical to per-record Predict.
		cp.ClassifyBatch(recs, preds[:n])
		for i, r := range recs {
			if want := ip.Predict(data.Record{Values: r.Values}); preds[i] != want {
				t.Fatalf("step %d rec %d: ClassifyBatch %d vs oracle %d", step, i, preds[i], want)
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
		if step == 3 {
			ip.MarkDrift()
			cp.MarkDrift()
		}
		// Exercise label-free time advance periodically (§III-B).
		if step%5 == 4 {
			ip.AdvanceTime(2)
			cp.AdvanceTime(2)
			checkStateEqual(t, ip, cp, fmt.Sprintf("step %d (advanced)", step))
		}
		done += n
		step++
	}

	checkEventsEqual(t, iev, cev)

	// Cross-restore: the oracle's state into a fresh predictor and vice
	// versa, then continue streaming — restored twins must stay
	// bit-identical.
	ip2 := newOracle(m, opts)
	cp2 := newPred(opts)
	if err := cp2.Restore(ip.Snapshot()); err != nil {
		t.Fatalf("restore oracle snapshot into predictor: %v", err)
	}
	if err := ip2.Restore(cp.Snapshot()); err != nil {
		t.Fatalf("restore predictor snapshot into oracle: %v", err)
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

// checkEventsEqual compares two sink event streams bit for bit.
func checkEventsEqual(t *testing.T, want, got []obs.PredictorEvent) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("sink events: oracle %d, predictor %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Seq != g.Seq || w.MAP != g.MAP || w.PrevMAP != g.PrevMAP || w.Switched != g.Switched ||
			w.SinceDrift != g.SinceDrift || !sameFloat(w.Prob, g.Prob) || !sameFloats(w.Active, g.Active) {
			t.Fatalf("sink event %d diverged\noracle:    %+v\npredictor: %+v", i, w, g)
		}
	}
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

// TestRestoreValidation: a compiled session refuses what core.Predictor's
// Restore refuses, and a refusal changes nothing.
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
