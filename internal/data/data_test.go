package data

import (
	"math"
	"testing"
	"testing/quick"

	"highorder/internal/rng"
)

func binarySchema() *Schema {
	return &Schema{
		Attributes: []Attribute{
			{Name: "color", Kind: Nominal, Values: []string{"green", "blue", "red"}},
			{Name: "x", Kind: Numeric},
		},
		Classes: []string{"neg", "pos"},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := binarySchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		{Classes: []string{"a", "b"}},
		{Attributes: []Attribute{{Name: "x", Kind: Numeric}}, Classes: []string{"a"}},
		{Attributes: []Attribute{{Name: "", Kind: Numeric}}, Classes: []string{"a", "b"}},
		{Attributes: []Attribute{{Name: "x", Kind: Numeric}, {Name: "x", Kind: Numeric}}, Classes: []string{"a", "b"}},
		{Attributes: []Attribute{{Name: "c", Kind: Nominal, Values: []string{"only"}}}, Classes: []string{"a", "b"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestCheckRecord(t *testing.T) {
	s := binarySchema()
	ok := Record{Values: []float64{1, 0.5}, Class: 1}
	if err := s.CheckRecord(ok); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := []Record{
		{Values: []float64{1}, Class: 0},        // wrong arity
		{Values: []float64{3, 0.5}, Class: 0},   // nominal out of range
		{Values: []float64{1.5, 0.5}, Class: 0}, // non-integer nominal
		{Values: []float64{-1, 0.5}, Class: 0},  // negative nominal
		{Values: []float64{0, 0.5}, Class: 2},   // class out of range
		{Values: []float64{0, 0.5}, Class: -1},  // negative class
	}
	for i, r := range bad {
		if err := s.CheckRecord(r); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

func TestAttributeHelpers(t *testing.T) {
	a := Attribute{Name: "color", Kind: Nominal, Values: []string{"g", "b", "r"}}
	if a.Cardinality() != 3 {
		t.Errorf("Cardinality = %d, want 3", a.Cardinality())
	}
	if idx := a.ValueIndex("b"); idx != 1 {
		t.Errorf("ValueIndex(b) = %d, want 1", idx)
	}
	if idx := a.ValueIndex("missing"); idx != -1 {
		t.Errorf("ValueIndex(missing) = %d, want -1", idx)
	}
	num := Attribute{Name: "x", Kind: Numeric}
	if num.Cardinality() != 0 {
		t.Errorf("numeric Cardinality = %d, want 0", num.Cardinality())
	}
}

func TestSchemaClassIndex(t *testing.T) {
	s := binarySchema()
	if s.ClassIndex("pos") != 1 || s.ClassIndex("neg") != 0 || s.ClassIndex("zzz") != -1 {
		t.Fatalf("ClassIndex lookups wrong: pos=%d neg=%d zzz=%d",
			s.ClassIndex("pos"), s.ClassIndex("neg"), s.ClassIndex("zzz"))
	}
}

func smallDataset(classes ...int) *Dataset {
	d := NewDataset(binarySchema())
	for i, c := range classes {
		d.Add(Record{Values: []float64{float64(i % 3), float64(i)}, Class: c})
	}
	return d
}

func TestClassCountsAndDistribution(t *testing.T) {
	d := smallDataset(0, 1, 1, 1)
	counts := d.ClassCounts()
	if counts[0] != 1 || counts[1] != 3 {
		t.Fatalf("ClassCounts = %v, want [1 3]", counts)
	}
	dist := d.ClassDistribution()
	if math.Abs(dist[0]-0.25) > 1e-12 || math.Abs(dist[1]-0.75) > 1e-12 {
		t.Fatalf("ClassDistribution = %v, want [0.25 0.75]", dist)
	}
}

func TestEmptyDistributionIsUniform(t *testing.T) {
	d := NewDataset(binarySchema())
	dist := d.ClassDistribution()
	if dist[0] != 0.5 || dist[1] != 0.5 {
		t.Fatalf("empty ClassDistribution = %v, want uniform", dist)
	}
}

func TestMajorityClass(t *testing.T) {
	if got := smallDataset(0, 1, 1).MajorityClass(); got != 1 {
		t.Errorf("MajorityClass = %d, want 1", got)
	}
	if got := smallDataset(0, 1).MajorityClass(); got != 0 {
		t.Errorf("tie MajorityClass = %d, want 0 (lower index)", got)
	}
	if got := NewDataset(binarySchema()).MajorityClass(); got != 0 {
		t.Errorf("empty MajorityClass = %d, want 0", got)
	}
}

func TestIsPure(t *testing.T) {
	if !smallDataset(1, 1, 1).IsPure() {
		t.Error("uniform dataset not reported pure")
	}
	if smallDataset(0, 1).IsPure() {
		t.Error("mixed dataset reported pure")
	}
	if !NewDataset(binarySchema()).IsPure() {
		t.Error("empty dataset not reported pure")
	}
}

func TestSliceAndConcat(t *testing.T) {
	d := smallDataset(0, 1, 0, 1, 0)
	a, b := d.Slice(0, 2), d.Slice(2, 5)
	if a.Len() != 2 || b.Len() != 3 {
		t.Fatalf("Slice lengths = %d,%d, want 2,3", a.Len(), b.Len())
	}
	c := a.Concat(b)
	if c.Len() != 5 {
		t.Fatalf("Concat length = %d, want 5", c.Len())
	}
	for i := range d.Records {
		if c.Records[i].Class != d.Records[i].Class {
			t.Fatalf("Concat reordered records at %d", i)
		}
	}
}

func TestSplitHoldout(t *testing.T) {
	d := smallDataset(0, 1, 0, 1, 0, 1, 0)
	nTrain, nTest := HoldoutSizes(d.Len())
	if nTest != 3 || nTrain != 4 {
		t.Fatalf("holdout sizes train=%d test=%d, want 4,3 (odd extra to train)", nTrain, nTest)
	}
	train, test := make([]Record, nTrain), make([]Record, nTest)
	d.SplitHoldout(rng.New(1), train, test)
	// Every original record appears exactly once across the two halves.
	seen := make(map[float64]int)
	for _, r := range append(append([]Record{}, train...), test...) {
		seen[r.Values[1]]++
	}
	if len(seen) != 7 {
		t.Fatalf("holdout halves cover %d distinct records, want 7", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("record %v appears %d times across halves", v, n)
		}
	}
}

func TestSplitHoldoutDeterministic(t *testing.T) {
	d := smallDataset(0, 1, 0, 1, 0, 1)
	split := func(seed int64) (train, test []Record) {
		train, test = make([]Record, 3), make([]Record, 3)
		d.SplitHoldout(rng.New(seed), train, test)
		return train, test
	}
	tr1, te1 := split(9)
	tr2, te2 := split(9)
	for i := range tr1 {
		if tr1[i].Values[1] != tr2[i].Values[1] {
			t.Fatal("holdout split not deterministic for equal seeds")
		}
	}
	for i := range te1 {
		if te1[i].Values[1] != te2[i].Values[1] {
			t.Fatal("holdout split not deterministic for equal seeds")
		}
	}
}

func TestBlocks(t *testing.T) {
	d := smallDataset(0, 1, 0, 1, 0, 1, 0)
	blocks := d.Blocks(3)
	if len(blocks) != 3 {
		t.Fatalf("Blocks count = %d, want 3", len(blocks))
	}
	sizes := []int{blocks[0].Len(), blocks[1].Len(), blocks[2].Len()}
	if sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("Block sizes = %v, want [3 3 1]", sizes)
	}
	// Blocks preserve stream order.
	if blocks[0].Records[0].Values[1] != 0 || blocks[2].Records[0].Values[1] != 6 {
		t.Fatal("Blocks reordered the stream")
	}
}

func TestBlocksPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Blocks(0) did not panic")
		}
	}()
	smallDataset(0, 1).Blocks(0)
}

func TestEntropy(t *testing.T) {
	if h := smallDataset(0, 0, 1, 1).Entropy(); math.Abs(h-1) > 1e-12 {
		t.Errorf("balanced entropy = %v, want 1", h)
	}
	if h := smallDataset(1, 1, 1).Entropy(); h != 0 {
		t.Errorf("pure entropy = %v, want 0", h)
	}
	if h := NewDataset(binarySchema()).Entropy(); h != 0 {
		t.Errorf("empty entropy = %v, want 0", h)
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{Values: []float64{1, 2}, Class: 1}
	c := r.Clone()
	c.Values[0] = 99
	if r.Values[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

// Property: for any class assignment, ClassCounts sums to Len and the
// distribution sums to 1.
func TestClassCountsProperty(t *testing.T) {
	f := func(labels []bool) bool {
		d := NewDataset(binarySchema())
		for i, l := range labels {
			c := 0
			if l {
				c = 1
			}
			d.Add(Record{Values: []float64{float64(i % 3), 0}, Class: c})
		}
		counts := d.ClassCounts()
		if counts[0]+counts[1] != d.Len() {
			return false
		}
		dist := d.ClassDistribution()
		return math.Abs(dist[0]+dist[1]-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Blocks(b) always reassembles to the original dataset.
func TestBlocksReassembleProperty(t *testing.T) {
	f := func(n uint8, b uint8) bool {
		size := int(b)%10 + 1
		d := NewDataset(binarySchema())
		for i := 0; i < int(n); i++ {
			d.Add(Record{Values: []float64{0, float64(i)}, Class: i % 2})
		}
		total := 0
		next := 0.0
		for _, blk := range d.Blocks(size) {
			total += blk.Len()
			for _, r := range blk.Records {
				if r.Values[1] != next {
					return false
				}
				next++
			}
		}
		return total == d.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKFoldPartition(t *testing.T) {
	d := smallDataset(0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
	trains, tests := d.KFold(rng.New(4), 3)
	if len(trains) != 3 || len(tests) != 3 {
		t.Fatalf("folds = %d/%d, want 3/3", len(trains), len(tests))
	}
	totalTest := 0
	seen := map[float64]int{}
	for f := 0; f < 3; f++ {
		if trains[f].Len()+tests[f].Len() != d.Len() {
			t.Fatalf("fold %d covers %d records", f, trains[f].Len()+tests[f].Len())
		}
		totalTest += tests[f].Len()
		for _, r := range tests[f].Records {
			seen[r.Values[1]]++
		}
	}
	if totalTest != d.Len() {
		t.Fatalf("test shards cover %d records, want %d", totalTest, d.Len())
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("record %v appears in %d test shards", v, n)
		}
	}
}

func TestKFoldPanics(t *testing.T) {
	d := smallDataset(0, 1)
	for _, k := range []int{1, 3} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KFold(%d) on 2 records did not panic", k)
				}
			}()
			d.KFold(rng.New(1), k)
		}()
	}
}

func TestKFoldDisjointTrainTest(t *testing.T) {
	d := smallDataset(0, 1, 0, 1, 0, 1, 0, 1, 0)
	trains, tests := d.KFold(rng.New(5), 3)
	for f := range trains {
		inTest := map[float64]bool{}
		for _, r := range tests[f].Records {
			inTest[r.Values[1]] = true
		}
		for _, r := range trains[f].Records {
			if inTest[r.Values[1]] {
				t.Fatalf("fold %d train and test overlap", f)
			}
		}
	}
}
