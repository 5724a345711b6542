package tree

import (
	"math"
	"testing"
	"testing/quick"

	"highorder/internal/classifier"
	"highorder/internal/data"
	"highorder/internal/rng"
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

// conceptA: pos iff color=red (2) and size=small (0) — Stagger concept A.
func conceptA(color, shape, size int) int {
	if color == 2 && size == 0 {
		return 1
	}
	return 0
}

func staggerData(n int, seed int64, concept func(c, s, z int) int) *data.Dataset {
	src := rng.New(seed)
	d := data.NewDataset(staggerSchema())
	for i := 0; i < n; i++ {
		c, s, z := src.Intn(3), src.Intn(3), src.Intn(3)
		d.Add(data.Record{Values: []float64{float64(c), float64(s), float64(z)}, Class: concept(c, s, z)})
	}
	return d
}

func numericSchema(dims int) *data.Schema {
	attrs := make([]data.Attribute, dims)
	for i := range attrs {
		attrs[i] = data.Attribute{Name: string(rune('a' + i)), Kind: data.Numeric}
	}
	return &data.Schema{Attributes: attrs, Classes: []string{"neg", "pos"}}
}

func thresholdData(n int, seed int64, thr float64) *data.Dataset {
	src := rng.New(seed)
	d := data.NewDataset(numericSchema(2))
	for i := 0; i < n; i++ {
		x, y := src.Float64(), src.Float64()
		class := 0
		if x > thr {
			class = 1
		}
		d.Add(data.Record{Values: []float64{x, y}, Class: class})
	}
	return d
}

func TestTrainEmptyFails(t *testing.T) {
	if _, err := NewLearner().Train(data.NewDataset(staggerSchema())); err == nil {
		t.Fatal("training on empty dataset succeeded")
	}
}

func TestLearnsStaggerConceptExactly(t *testing.T) {
	train := staggerData(500, 1, conceptA)
	c := classifier.MustTrain(NewLearner(), train)
	test := staggerData(1000, 2, conceptA)
	if err := classifier.ErrorRate(c, test); err != 0 {
		t.Fatalf("error on noiseless Stagger concept = %v, want 0", err)
	}
}

func TestLearnsDisjunctiveConcept(t *testing.T) {
	// Stagger concept B: pos iff color=green (0) or shape=circle (1).
	conceptB := func(c, s, z int) int {
		if c == 0 || s == 1 {
			return 1
		}
		return 0
	}
	train := staggerData(500, 3, conceptB)
	c := classifier.MustTrain(NewLearner(), train)
	test := staggerData(1000, 4, conceptB)
	if err := classifier.ErrorRate(c, test); err != 0 {
		t.Fatalf("error on disjunctive concept = %v, want 0", err)
	}
}

func TestLearnsNumericThreshold(t *testing.T) {
	train := thresholdData(400, 5, 0.37)
	c := classifier.MustTrain(NewLearner(), train)
	test := thresholdData(2000, 6, 0.37)
	if err := classifier.ErrorRate(c, test); err > 0.02 {
		t.Fatalf("error on threshold concept = %v, want <= 0.02", err)
	}
	tr := c.(*Tree)
	if tr.Root.IsLeaf() {
		t.Fatal("tree did not split on the informative numeric attribute")
	}
	if tr.Root.Attr != 0 {
		t.Fatalf("root split on attribute %d, want 0", tr.Root.Attr)
	}
	if math.Abs(tr.Root.Threshold-0.37) > 0.05 {
		t.Fatalf("root threshold = %v, want ≈0.37", tr.Root.Threshold)
	}
}

func TestPureDatasetIsLeaf(t *testing.T) {
	d := data.NewDataset(staggerSchema())
	for i := 0; i < 20; i++ {
		d.Add(data.Record{Values: []float64{float64(i % 3), 0, 0}, Class: 1})
	}
	c := classifier.MustTrain(NewLearner(), d)
	tr := c.(*Tree)
	if !tr.Root.IsLeaf() {
		t.Fatal("pure dataset grew an internal node")
	}
	if tr.Root.Class != 1 {
		t.Fatalf("pure leaf class = %d, want 1", tr.Root.Class)
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	// Random labels: an unpruned tree overfits heavily; pruning should
	// collapse most of it.
	src := rng.New(7)
	d := data.NewDataset(numericSchema(3))
	for i := 0; i < 300; i++ {
		d.Add(data.Record{
			Values: []float64{src.Float64(), src.Float64(), src.Float64()},
			Class:  src.Intn(2),
		})
	}
	unpruned := classifier.MustTrain(&Learner{Opts: Options{Confidence: 1}}, d).(*Tree)
	pruned := classifier.MustTrain(&Learner{Opts: Options{Confidence: 0.25}}, d).(*Tree)
	if pruned.Size() >= unpruned.Size() {
		t.Fatalf("pruned size %d >= unpruned size %d on random labels", pruned.Size(), unpruned.Size())
	}
}

func TestPruningKeepsRealStructure(t *testing.T) {
	train := staggerData(600, 8, conceptA)
	pruned := classifier.MustTrain(&Learner{Opts: Options{Confidence: 0.25}}, train).(*Tree)
	test := staggerData(1000, 9, conceptA)
	if err := classifier.ErrorRate(pruned, test); err != 0 {
		t.Fatalf("pruning destroyed a perfectly learnable concept: error %v", err)
	}
}

func TestMaxDepth(t *testing.T) {
	train := thresholdData(500, 10, 0.5)
	c := classifier.MustTrain(&Learner{Opts: Options{MaxDepth: 1, Confidence: 1}}, train).(*Tree)
	if c.Depth() > 1 {
		t.Fatalf("depth %d exceeds MaxDepth 1", c.Depth())
	}
}

func TestMinLeaf(t *testing.T) {
	train := thresholdData(200, 11, 0.5)
	c := classifier.MustTrain(&Learner{Opts: Options{MinLeaf: 50, Confidence: 1}}, train).(*Tree)
	var check func(n *Node) bool
	check = func(n *Node) bool {
		if n.IsLeaf() {
			return true
		}
		for _, ch := range n.Children {
			if ch == nil {
				continue
			}
			if ch.N < 50 || !check(ch) {
				return false
			}
		}
		return true
	}
	if !check(c.Root) {
		t.Fatal("a branch received fewer than MinLeaf records")
	}
}

func TestPredictProbaSumsToOne(t *testing.T) {
	train := staggerData(300, 12, conceptA)
	c := classifier.MustTrain(NewLearner(), train)
	test := staggerData(100, 13, conceptA)
	for _, r := range test.Records {
		p := c.PredictProba(r)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
		if classifier.ArgMax(p) != c.Predict(r) {
			t.Fatal("Predict disagrees with argmax of PredictProba")
		}
	}
}

func TestUnseenNominalBranchFallsBack(t *testing.T) {
	// Train with color ∈ {green, blue} only; a red record at prediction
	// time must fall back to the node's majority rather than crash.
	d := data.NewDataset(staggerSchema())
	for i := 0; i < 100; i++ {
		color := i % 2 // never red
		class := 0
		if color == 0 {
			class = 1
		}
		d.Add(data.Record{Values: []float64{float64(color), 0, 0}, Class: class})
	}
	c := classifier.MustTrain(&Learner{Opts: Options{Confidence: 1}}, d)
	red := data.Record{Values: []float64{2, 0, 0}, Class: 0}
	got := c.Predict(red)
	if got != 0 && got != 1 {
		t.Fatalf("fallback prediction = %d", got)
	}
}

func TestTreeStringMentionsAttributes(t *testing.T) {
	train := staggerData(300, 14, conceptA)
	tr := classifier.MustTrain(NewLearner(), train).(*Tree)
	s := tr.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
}

func TestSizeLeavesDepthConsistency(t *testing.T) {
	train := staggerData(500, 15, conceptA)
	tr := classifier.MustTrain(NewLearner(), train).(*Tree)
	if tr.Leaves() > tr.Size() {
		t.Fatalf("leaves %d > size %d", tr.Leaves(), tr.Size())
	}
	if tr.Size() > 1 && tr.Depth() == 0 {
		t.Fatal("multi-node tree reports depth 0")
	}
}

func TestAddErrsProperties(t *testing.T) {
	// Zero observed errors still yields a positive pessimistic estimate.
	if v := addErrs(10, 0, 0.25); v <= 0 {
		t.Fatalf("addErrs(10,0) = %v, want > 0", v)
	}
	// More confidence (larger cf) means a smaller correction.
	if addErrs(100, 10, 0.5) >= addErrs(100, 10, 0.1) {
		t.Fatal("addErrs not decreasing in cf")
	}
	// The correction never exceeds the remaining records.
	f := func(n8, e8 uint8) bool {
		n := float64(n8%100 + 2)
		e := math.Min(float64(e8)/4, n-1)
		v := addErrs(n, e, 0.25)
		return v >= 0 && v <= n-e+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.75, 0.6744898},
		{0.975, 1.959964},
		{0.25, -0.6744898},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Error("quantile at 0/1 should be ±Inf")
	}
}

// Property: training is deterministic — same data, same tree shape.
func TestTrainDeterministic(t *testing.T) {
	train := staggerData(400, 16, conceptA)
	a := classifier.MustTrain(NewLearner(), train).(*Tree)
	b := classifier.MustTrain(NewLearner(), train).(*Tree)
	if a.Size() != b.Size() || a.Depth() != b.Depth() {
		t.Fatal("training is not deterministic")
	}
	test := staggerData(200, 17, conceptA)
	for _, r := range test.Records {
		if a.Predict(r) != b.Predict(r) {
			t.Fatal("two trainings on identical data disagree")
		}
	}
}

// Property: the tree never predicts a class index outside the schema.
func TestPredictInRangeProperty(t *testing.T) {
	train := staggerData(200, 18, conceptA)
	c := classifier.MustTrain(NewLearner(), train)
	f := func(a, b, z uint8) bool {
		r := data.Record{Values: []float64{float64(a % 3), float64(b % 3), float64(z % 3)}}
		p := c.Predict(r)
		return p == 0 || p == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrainStagger1k(b *testing.B) {
	train := staggerData(1000, 20, conceptA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLearner().Train(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainNumeric1k(b *testing.B) {
	train := thresholdData(1000, 21, 0.37)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLearner().Train(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainConcat trains BenchmarkTrainNumeric1k's dataset from the
// merged orders of its two halves, read in place through a view, the way
// the clustering engine trains a candidate merger.
func BenchmarkTrainConcat(b *testing.B) {
	train := thresholdData(1000, 21, 0.37)
	x, err := NewOrder(&data.Dataset{Schema: train.Schema, Records: train.Records[:500]})
	if err != nil {
		b.Fatal(err)
	}
	y, err := NewOrder(&data.Dataset{Schema: train.Schema, Records: train.Records[500:]})
	if err != nil {
		b.Fatal(err)
	}
	v := data.ViewOf(train)
	l := NewLearner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.TrainConcat(v, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	train := thresholdData(1000, 22, 0.37)
	c := classifier.MustTrain(NewLearner(), train)
	r := train.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(r)
	}
}

// TestCrossValidatedError demonstrates k-fold estimation (the validation
// variant the paper's footnote 1 prefers when speed allows): the CV error
// of the tree on a clean Stagger concept is near zero with low variance.
func TestCrossValidatedError(t *testing.T) {
	d := staggerData(600, 60, conceptA)
	trains, tests := d.KFold(rng.New(61), 5)
	for f := range trains {
		c := classifier.MustTrain(NewLearner(), trains[f])
		if err := classifier.ErrorRate(c, tests[f]); err > 0.05 {
			t.Fatalf("fold %d CV error = %v", f, err)
		}
	}
}

// TestNominalFallbackRule pins the documented out-of-range rule at an
// internal node: a nominal value selects branch int(v) only when
// v >= 0 && v < float64(len(Children)) (checked in float space); every
// other value — an unseen branch code, a negative, NaN, ±Inf, a value
// too large for int, a fraction beyond the branch count — stops the walk
// and answers the internal node's own majority class and distribution.
func TestNominalFallbackRule(t *testing.T) {
	// A hand-built stump over "color": branch 0 and 1 exist, branch 2
	// (red) was never materialized, like a grower that saw no red rows.
	root := &Node{
		Attr:  0,
		Class: 1,
		Dist:  []float64{0.4, 0.6},
		Children: []*Node{
			{Class: 0, Dist: []float64{1, 0}},
			{Class: 1, Dist: []float64{0, 1}},
			nil,
		},
	}
	tr := &Tree{Schema: staggerSchema(), Root: root}

	rec := func(v float64) data.Record {
		return data.Record{Values: []float64{v, 0, 0}}
	}
	cases := []struct {
		name  string
		v     float64
		class int
		dist  []float64
	}{
		{"in-range 0", 0, 0, root.Children[0].Dist},
		{"in-range 1", 1, 1, root.Children[1].Dist},
		{"fractional in range", 1.7, 1, root.Children[1].Dist}, // int(1.7) = 1
		{"nil branch", 2, 1, root.Dist},
		{"unseen code", 3, 1, root.Dist},
		{"negative", -1, 1, root.Dist},
		{"negative fraction", -0.5, 1, root.Dist},
		{"NaN", math.NaN(), 1, root.Dist},
		{"+Inf", math.Inf(1), 1, root.Dist},
		{"-Inf", math.Inf(-1), 1, root.Dist},
		{"beyond int64 range", 1e300, 1, root.Dist},
		{"just below branch count", math.Nextafter(3, 0), 1, root.Dist},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tr.Predict(rec(tc.v)); got != tc.class {
				t.Fatalf("Predict(%v) = %d, want %d", tc.v, got, tc.class)
			}
			got := tr.PredictProba(rec(tc.v))
			for i := range got {
				if got[i] != tc.dist[i] { //homlint:allow floatcmp -- the fallback must answer the node's own stored distribution, exactly
					t.Fatalf("PredictProba(%v) = %v, want %v", tc.v, got, tc.dist)
				}
			}
		})
	}
}
