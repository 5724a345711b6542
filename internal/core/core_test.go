package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"highorder/internal/data"
	"highorder/internal/rng"
	"highorder/internal/synth"
)

func staggerSchema() *data.Schema {
	return &data.Schema{
		Attributes: []data.Attribute{
			{Name: "color", Kind: data.Nominal, Values: []string{"green", "blue", "red"}},
			{Name: "shape", Kind: data.Nominal, Values: []string{"triangle", "circle", "rectangle"}},
			{Name: "size", Kind: data.Nominal, Values: []string{"small", "medium", "large"}},
		},
		Classes: []string{"neg", "pos"},
	}
}

var staggerConcepts = []func(c, s, z int) int{
	func(c, s, z int) int {
		if c == 2 && z == 0 {
			return 1
		}
		return 0
	},
	func(c, s, z int) int {
		if c == 0 || s == 1 {
			return 1
		}
		return 0
	},
	func(c, s, z int) int {
		if z == 1 || z == 2 {
			return 1
		}
		return 0
	},
}

// stream generates records following the given concept schedule; it returns
// the dataset plus each record's true concept.
func stream(seed int64, spec ...[2]int) (*data.Dataset, []int) {
	src := rng.New(seed)
	d := data.NewDataset(staggerSchema())
	var truth []int
	for _, sg := range spec {
		concept, length := sg[0], sg[1]
		for i := 0; i < length; i++ {
			c, s, z := src.Intn(3), src.Intn(3), src.Intn(3)
			d.Add(data.Record{
				Values: []float64{float64(c), float64(s), float64(z)},
				Class:  staggerConcepts[concept](c, s, z),
			})
			truth = append(truth, concept)
		}
	}
	return d, truth
}

func buildThreeConceptModel(t *testing.T) *Model {
	t.Helper()
	hist, _ := stream(1,
		[2]int{0, 400}, [2]int{1, 400}, [2]int{2, 400},
		[2]int{0, 400}, [2]int{1, 400}, [2]int{2, 400})
	m, err := Build(hist, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := Build(data.NewDataset(staggerSchema()), DefaultOptions()); err == nil {
		t.Fatal("empty history accepted")
	}
	if _, err := Build(nil, DefaultOptions()); err == nil {
		t.Fatal("nil history accepted")
	}
}

// TestBuildRejectsNaN: a NaN attribute value in the history fails the
// build with the tree learner's error naming the attribute, whichever
// training (a step-1 leaf or a concept retrain) meets it first.
func TestBuildRejectsNaN(t *testing.T) {
	noRetrain := DefaultOptions()
	noRetrain.RetrainConcepts = false
	cases := []struct {
		name string
		hist func() *data.Dataset
		nan  func(i int) bool
		attr int
		opts Options
		want string
	}{
		{"every third x1", seaHistory, func(i int) bool { return i%3 == 2 }, 0, DefaultOptions(), `attribute "x1" is NaN`},
		{"every third x1, no retrain", seaHistory, func(i int) bool { return i%3 == 2 }, 0, noRetrain, `attribute "x1" is NaN`},
		{"one x2", seaHistory, func(i int) bool { return i == 1234 }, 1, DefaultOptions(), `attribute "x2" is NaN`},
		{"one nominal", func() *data.Dataset { d, _ := stream(3, [2]int{0, 600}, [2]int{1, 600}); return d },
			func(i int) bool { return i == 700 }, 0, DefaultOptions(), `attribute "color" is NaN`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hist := tc.hist()
			for i := range hist.Records {
				if tc.nan(i) {
					hist.Records[i].Values[tc.attr] = math.NaN()
				}
			}
			m, err := Build(hist, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build = (%v, %v), want an error containing %q", m, err, tc.want)
			}
		})
	}
}

// seaHistory is a 3,000-record SEA history with frequent concept shifts.
func seaHistory() *data.Dataset {
	return synth.TakeDataset(synth.NewSEA(synth.SEAConfig{Seed: 5, Lambda: 0.003}), 3000)
}

func TestBuildFindsThreeConcepts(t *testing.T) {
	m := buildThreeConceptModel(t)
	if m.NumConcepts() != 3 {
		t.Fatalf("found %d concepts, want 3", m.NumConcepts())
	}
	for i, c := range m.Concepts {
		if c.Err > 0.05 {
			t.Errorf("concept %d Err = %v, want near 0", i, c.Err)
		}
		if c.Len < 100 || c.Freq <= 0 {
			t.Errorf("concept %d Len=%v Freq=%v implausible", i, c.Len, c.Freq)
		}
	}
	if m.Stats.Elapsed <= 0 || m.Stats.HistorySize != 2400 {
		t.Errorf("stats not recorded: %+v", m.Stats)
	}
}

func TestChiRowsNormalized(t *testing.T) {
	m := buildThreeConceptModel(t)
	for i, row := range m.Chi {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Chi row %d sums to %v", i, sum)
		}
	}
}

func TestPredictorInitialUniform(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	for _, v := range p.ActiveProbabilities() {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("initial probabilities not uniform: %v", p.ActiveProbabilities())
		}
	}
}

func TestObserveLocksOntoCurrentConcept(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	// Feed 50 labeled records from one concept; by then its active
	// probability should dominate.
	test, _ := stream(2, [2]int{1, 50})
	for _, r := range test.Records {
		p.Observe(r)
	}
	probs := p.ActiveProbabilities()
	best := 0
	for c := range probs {
		if probs[c] > probs[best] {
			best = c
		}
	}
	if probs[best] < 0.9 {
		t.Fatalf("dominant concept probability %v after 50 observations, want > 0.9 (probs %v)", probs[best], probs)
	}
	// And prediction through that concept should be near-perfect.
	fresh, _ := stream(3, [2]int{1, 500})
	wrong := 0
	for _, r := range fresh.Records {
		if p.Predict(data.Record{Values: r.Values}) != r.Class {
			wrong++
		}
	}
	if got := float64(wrong) / 500; got > 0.01 {
		t.Fatalf("error after locking on = %v, want <= 0.01", got)
	}
}

func TestProbabilitiesSwitchOnConceptChange(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	warm, _ := stream(4, [2]int{0, 100})
	for _, r := range warm.Records {
		p.Observe(r)
	}
	next, _ := stream(5, [2]int{2, 100})
	for _, r := range next.Records {
		p.Observe(r)
	}
	probs := p.ActiveProbabilities()
	best := 0
	for c := range probs {
		if probs[c] > probs[best] {
			best = c
		}
	}
	// The dominant concept must now classify concept-2 data well.
	check, _ := stream(6, [2]int{2, 300})
	wrong := 0
	for _, r := range check.Records {
		if m.Concepts[best].Model.Predict(data.Record{Values: r.Values}) != r.Class {
			wrong++
		}
	}
	if got := float64(wrong) / 300; got > 0.02 {
		t.Fatalf("after a shift the dominant concept misclassifies %v of new-concept data", got)
	}
}

func TestPredictProbaNormalized(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	test, _ := stream(7, [2]int{0, 50})
	for _, r := range test.Records {
		probs := p.PredictProba(data.Record{Values: r.Values})
		sum := 0.0
		for _, v := range probs {
			if v < -1e-12 {
				t.Fatalf("negative class probability %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("class probabilities sum to %v", sum)
		}
		p.Observe(r)
	}
}

func TestPrunedMatchesUnpruned(t *testing.T) {
	m := buildThreeConceptModel(t)
	pruned := m.NewPredictor()
	full := m.NewPredictorWithOptions(PredictorOptions{DisablePruning: true})
	test, _ := stream(8, [2]int{0, 200}, [2]int{1, 200}, [2]int{2, 200})
	for _, r := range test.Records {
		x := data.Record{Values: r.Values}
		if pruned.Predict(x) != full.Predict(x) {
			t.Fatalf("pruned and unpruned predictions disagree")
		}
		pruned.Observe(r)
		full.Observe(r)
	}
}

func TestMAPOnlyPredicts(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictorWithOptions(PredictorOptions{MAPOnly: true})
	test, _ := stream(9, [2]int{1, 200})
	wrong := 0
	for _, r := range test.Records {
		if p.Predict(data.Record{Values: r.Values}) != r.Class {
			wrong++
		}
		p.Observe(r)
	}
	if got := float64(wrong) / 200; got > 0.10 {
		t.Fatalf("MAP-only error = %v, want < 0.10", got)
	}
}

func TestAdvanceTimeDiffusesProbabilities(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	warm, _ := stream(10, [2]int{0, 100})
	for _, r := range warm.Records {
		p.Observe(r)
	}
	before := p.ActiveProbabilities()
	maxBefore := 0.0
	for _, v := range before {
		if v > maxBefore {
			maxBefore = v
		}
	}
	p.AdvanceTime(5000)
	after := p.ActiveProbabilities()
	maxAfter, sum := 0.0, 0.0
	for _, v := range after {
		if v > maxAfter {
			maxAfter = v
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("probabilities drifted off the simplex: sum %v", sum)
	}
	if maxAfter >= maxBefore {
		t.Fatalf("AdvanceTime did not diffuse certainty: %v → %v", maxBefore, maxAfter)
	}
}

func TestObservedCounter(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	test, _ := stream(11, [2]int{0, 17})
	for _, r := range test.Records {
		p.Observe(r)
	}
	if p.Observed() != 17 {
		t.Fatalf("Observed = %d, want 17", p.Observed())
	}
}

func TestBuildWithoutRetrain(t *testing.T) {
	hist, _ := stream(12, [2]int{0, 400}, [2]int{1, 400})
	opts := DefaultOptions()
	opts.RetrainConcepts = false
	m, err := Build(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumConcepts() < 2 {
		t.Fatalf("found %d concepts, want >= 2", m.NumConcepts())
	}
}

func TestBuildEmpiricalTransitions(t *testing.T) {
	hist, _ := stream(13, [2]int{0, 300}, [2]int{1, 300}, [2]int{0, 300}, [2]int{1, 300})
	opts := DefaultOptions()
	opts.EmpiricalTransitions = true
	m, err := Build(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range m.Chi {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("empirical Chi row %d sums to %v", i, sum)
		}
	}
}

func TestTopTwo(t *testing.T) {
	cases := []struct {
		in           []float64
		best, second int
	}{
		{[]float64{0.7, 0.2, 0.1}, 0, 1},
		{[]float64{0.1, 0.2, 0.7}, 2, 1},
		{[]float64{0.5}, 0, 0},
		{[]float64{0.5, 0.5}, 0, 1},
	}
	for _, c := range cases {
		b, s := topTwo(c.in)
		if b != c.best || s != c.second {
			t.Errorf("topTwo(%v) = %d,%d want %d,%d", c.in, b, s, c.best, c.second)
		}
	}
}

func TestPriorProbabilitiesIsCopy(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	prior := p.PriorProbabilities()
	prior[0] = 99
	again := p.PriorProbabilities()
	if again[0] == 99 {
		t.Fatal("PriorProbabilities leaked internal state")
	}
}

// Property: the active probabilities remain a valid distribution under any
// sequence of observations, even adversarial ones.
func TestActiveProbabilityInvariant(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	f := func(seq []uint8) bool {
		for _, b := range seq {
			c := int(b) % 3
			s := int(b/3) % 3
			z := int(b/9) % 3
			// Label adversarially: flip between arbitrary classes.
			class := int(b) % 2
			p.Observe(data.Record{Values: []float64{float64(c), float64(s), float64(z)}, Class: class})
			sum := 0.0
			for _, v := range p.ActiveProbabilities() {
				if v < 0 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Predict always returns a class index inside the schema.
func TestPredictInRange(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	f := func(a, b, c uint8) bool {
		r := data.Record{Values: []float64{float64(a % 3), float64(b % 3), float64(c % 3)}}
		got := p.Predict(r)
		return got >= 0 && got < m.Schema.NumClasses()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorsAreIndependent(t *testing.T) {
	m := buildThreeConceptModel(t)
	p1, p2 := m.NewPredictor(), m.NewPredictor()
	warm, _ := stream(30, [2]int{1, 200})
	for _, r := range warm.Records {
		p1.Observe(r)
	}
	// p2 must still be uniform.
	for _, v := range p2.ActiveProbabilities() {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatal("predictors share state")
		}
	}
}

func TestBuildStatsClusteringCounts(t *testing.T) {
	m := buildThreeConceptModel(t)
	st := m.Stats.Clustering
	if st.Blocks == 0 || st.Chunks == 0 || st.ModelsTrained == 0 || st.Mergers == 0 {
		t.Fatalf("clustering stats empty: %+v", st)
	}
	if st.Chunks > st.Blocks {
		t.Fatalf("chunks %d > blocks %d", st.Chunks, st.Blocks)
	}
}

func TestRecentExplainedRateOnKnownConcept(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	if rate, full := p.RecentExplainedRate(); rate != 1 || full {
		t.Fatalf("fresh predictor rate = %v full = %v", rate, full)
	}
	known, _ := stream(40, [2]int{1, 200})
	for _, r := range known.Records {
		p.Observe(r)
	}
	rate, full := p.RecentExplainedRate()
	if !full {
		t.Fatal("window not full after 200 observations")
	}
	if rate < 0.95 {
		t.Fatalf("explained rate on a known concept = %v, want >= 0.95", rate)
	}
}

func TestRecentExplainedRateDetectsNovelConcept(t *testing.T) {
	// Build from concepts 0 and 1 only; stream concept 2 (never seen).
	hist, _ := stream(41, [2]int{0, 600}, [2]int{1, 600}, [2]int{0, 600}, [2]int{1, 600})
	m, err := Build(hist, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewPredictor()
	novel, _ := stream(42, [2]int{2, 300})
	for _, r := range novel.Records {
		p.Observe(r)
	}
	rate, full := p.RecentExplainedRate()
	if !full {
		t.Fatal("window not full")
	}
	if rate > 0.85 {
		t.Fatalf("explained rate on a novel concept = %v, want clearly below a known concept's", rate)
	}
}

func TestCurrentConcept(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	warm, _ := stream(50, [2]int{2, 150})
	for _, r := range warm.Records {
		p.Observe(r)
	}
	c, prob := p.CurrentConcept()
	probs := p.ActiveProbabilities()
	if probs[c] != prob {
		t.Fatalf("CurrentConcept probability %v != ActiveProbabilities[%d] %v", prob, c, probs[c])
	}
	if prob < 0.9 {
		t.Fatalf("dominant probability %v after 150 one-concept observations", prob)
	}
}
