// Package data defines the dataset substrate shared by every learner and
// generator in the repository: attribute schemas mixing nominal and numeric
// attributes, labeled records, and time-ordered datasets with the slicing,
// splitting and class-statistics operations the concept-clustering algorithm
// needs.
//
// A Record stores all attribute values as float64: numeric attributes hold
// their value directly, nominal attributes hold the index of the value in
// the attribute's Values list. This keeps records compact and uniform while
// the Schema preserves the semantics.
package data

import (
	"fmt"
	"math"
	"strings"
)

// AttrKind distinguishes nominal (categorical) from numeric (continuous)
// attributes.
type AttrKind int

const (
	// Nominal attributes take one of a fixed set of unordered values.
	Nominal AttrKind = iota
	// Numeric attributes take real values.
	Numeric
)

// String returns "nominal" or "numeric".
func (k AttrKind) String() string {
	switch k {
	case Nominal:
		return "nominal"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("AttrKind(%d)", int(k))
	}
}

// Attribute describes a single input attribute.
type Attribute struct {
	// Name identifies the attribute in schemas and serialized streams.
	Name string
	// Kind is Nominal or Numeric.
	Kind AttrKind
	// Values lists the admissible values of a Nominal attribute, in index
	// order. It is nil for Numeric attributes.
	Values []string
}

// Cardinality returns the number of distinct values of a nominal attribute,
// and 0 for a numeric attribute.
func (a Attribute) Cardinality() int {
	if a.Kind == Numeric {
		return 0
	}
	return len(a.Values)
}

// ValueIndex returns the index of value in a nominal attribute's value list,
// or -1 if absent.
func (a Attribute) ValueIndex(value string) int {
	for i, v := range a.Values {
		if v == value {
			return i
		}
	}
	return -1
}

// Schema describes the shape of a stream: its input attributes and the
// class labels.
type Schema struct {
	// Attributes are the input attributes, in record order.
	Attributes []Attribute
	// Classes are the class labels; a record's Class is an index into this
	// slice.
	Classes []string
}

// NumAttributes returns the number of input attributes.
func (s *Schema) NumAttributes() int { return len(s.Attributes) }

// NumClasses returns the number of class labels.
func (s *Schema) NumClasses() int { return len(s.Classes) }

// ClassIndex returns the index of label among the classes, or -1 if absent.
func (s *Schema) ClassIndex(label string) int {
	for i, c := range s.Classes {
		if c == label {
			return i
		}
	}
	return -1
}

// Validate reports whether the schema is well formed: at least one attribute
// and two classes, nominal attributes with at least two values, and no
// duplicate attribute names.
func (s *Schema) Validate() error {
	if len(s.Attributes) == 0 {
		return fmt.Errorf("data: schema has no attributes")
	}
	if len(s.Classes) < 2 {
		return fmt.Errorf("data: schema has %d classes, need at least 2", len(s.Classes))
	}
	seen := make(map[string]bool, len(s.Attributes))
	for i, a := range s.Attributes {
		if a.Name == "" {
			return fmt.Errorf("data: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("data: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Kind == Nominal && len(a.Values) < 2 {
			return fmt.Errorf("data: nominal attribute %q has %d values, need at least 2", a.Name, len(a.Values))
		}
	}
	return nil
}

// CheckRecord reports whether r conforms to the schema: correct arity,
// nominal values in range, class index in range.
func (s *Schema) CheckRecord(r Record) error {
	if len(r.Values) != len(s.Attributes) {
		return fmt.Errorf("data: record has %d values, schema has %d attributes", len(r.Values), len(s.Attributes))
	}
	for i, a := range s.Attributes {
		if a.Kind == Nominal {
			v := int(r.Values[i])
			//homlint:allow floatcmp -- integrality check: a nominal code is valid only when the round-trip is bit-exact
			if float64(v) != r.Values[i] || v < 0 || v >= len(a.Values) {
				return fmt.Errorf("data: attribute %q: nominal value %v out of range [0,%d)", a.Name, r.Values[i], len(a.Values))
			}
		}
	}
	if r.Class < 0 || r.Class >= len(s.Classes) {
		return fmt.Errorf("data: class %d out of range [0,%d)", r.Class, len(s.Classes))
	}
	return nil
}

// String renders the schema compactly, e.g. "color{green,blue,red}, x1:num → {pos,neg}".
func (s *Schema) String() string {
	var b strings.Builder
	for i, a := range s.Attributes {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		if a.Kind == Nominal {
			b.WriteString("{" + strings.Join(a.Values, ",") + "}")
		} else {
			b.WriteString(":num")
		}
	}
	b.WriteString(" → {" + strings.Join(s.Classes, ",") + "}")
	return b.String()
}

// Record is a single labeled example.
type Record struct {
	// Values holds the attribute values; see the package comment for the
	// encoding of nominal attributes.
	Values []float64
	// Class is the index of the record's label in the schema's Classes.
	Class int
}

// Clone returns a deep copy of r.
func (r Record) Clone() Record {
	v := make([]float64, len(r.Values))
	copy(v, r.Values)
	return Record{Values: v, Class: r.Class}
}

// Dataset is a time-ordered collection of records sharing a schema. The
// record order is the stream order; concept clustering relies on it.
type Dataset struct {
	Schema  *Schema
	Records []Record
}

// NewDataset returns an empty dataset over schema.
func NewDataset(schema *Schema) *Dataset {
	return &Dataset{Schema: schema}
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Add appends a record.
func (d *Dataset) Add(r Record) { d.Records = append(d.Records, r) }

// Slice returns a view dataset over records [lo, hi). The records are
// shared, not copied.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	return &Dataset{Schema: d.Schema, Records: d.Records[lo:hi]}
}

// Concat returns a new dataset whose record slice is the concatenation of
// d's and others' records, in order. The schema is d's.
func (d *Dataset) Concat(others ...*Dataset) *Dataset {
	n := len(d.Records)
	for _, o := range others {
		n += len(o.Records)
	}
	out := make([]Record, 0, n)
	out = append(out, d.Records...)
	for _, o := range others {
		out = append(out, o.Records...)
	}
	return &Dataset{Schema: d.Schema, Records: out}
}

// ClassCounts returns the number of records per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Schema.NumClasses())
	for _, r := range d.Records {
		counts[r.Class]++
	}
	return counts
}

// ClassDistribution returns the empirical class probabilities. For an empty
// dataset it returns a uniform distribution.
func (d *Dataset) ClassDistribution() []float64 {
	k := d.Schema.NumClasses()
	dist := make([]float64, k)
	if len(d.Records) == 0 {
		for i := range dist {
			dist[i] = 1 / float64(k)
		}
		return dist
	}
	for _, r := range d.Records {
		dist[r.Class]++
	}
	for i := range dist {
		dist[i] /= float64(len(d.Records))
	}
	return dist
}

// MajorityClass returns the most frequent class (ties broken by lower
// index). For an empty dataset it returns 0.
func (d *Dataset) MajorityClass() int {
	counts := d.ClassCounts()
	best, bestCount := 0, -1
	for c, n := range counts {
		if n > bestCount {
			best, bestCount = c, n
		}
	}
	return best
}

// IsPure reports whether every record has the same class. An empty dataset
// is pure.
func (d *Dataset) IsPure() bool {
	if len(d.Records) <= 1 {
		return true
	}
	first := d.Records[0].Class
	for _, r := range d.Records[1:] {
		if r.Class != first {
			return false
		}
	}
	return true
}

// Shuffler is the randomness a split needs; *rng.Source satisfies it.
type Shuffler interface {
	Perm(n int) []int
}

// HoldoutSizes returns the sizes of the two halves SplitHoldout makes of
// n records: the extra record of an odd n goes to the training half.
func HoldoutSizes(n int) (train, test int) { return n - n/2, n / 2 }

// SplitHoldout partitions d into a random half for training and the
// remaining half for testing, per the paper's holdout validation (§II-B),
// copying the records into the caller's train and test slices, whose
// lengths must be HoldoutSizes(d.Len()). The first n/2 positions of
// s.Perm(n) pick the test records, the rest the training records, each
// half in permutation order.
func (d *Dataset) SplitHoldout(s Shuffler, train, test []Record) {
	n := len(d.Records)
	if nTrain, nTest := HoldoutSizes(n); len(train) != nTrain || len(test) != nTest {
		panic("data: SplitHoldout halves do not match HoldoutSizes")
	}
	nTest := len(test)
	for i, p := range s.Perm(n) {
		if i < nTest {
			test[i] = d.Records[p]
		} else {
			train[i-nTest] = d.Records[p]
		}
	}
}

// KFold partitions d into k cross-validation folds: fold i's test set is
// the i-th shard of a random permutation, and its training set is the
// rest. Records are shared, not copied. The paper's footnote 1 notes
// k-fold validation is preferable to the holdout split where speed
// allows; this utility supports that variant. It panics if k < 2 or
// d has fewer than k records.
func (d *Dataset) KFold(s Shuffler, k int) (trains, tests []*Dataset) {
	if k < 2 {
		panic("data: KFold with k < 2")
	}
	n := len(d.Records)
	if n < k {
		panic("data: KFold with fewer records than folds")
	}
	perm := s.Perm(n)
	bounds := make([]int, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = i * n / k
	}
	trains = make([]*Dataset, k)
	tests = make([]*Dataset, k)
	for f := 0; f < k; f++ {
		testRecs := make([]Record, 0, bounds[f+1]-bounds[f])
		trainRecs := make([]Record, 0, n-(bounds[f+1]-bounds[f]))
		for i, p := range perm {
			if i >= bounds[f] && i < bounds[f+1] {
				testRecs = append(testRecs, d.Records[p])
			} else {
				trainRecs = append(trainRecs, d.Records[p])
			}
		}
		trains[f] = &Dataset{Schema: d.Schema, Records: trainRecs}
		tests[f] = &Dataset{Schema: d.Schema, Records: testRecs}
	}
	return trains, tests
}

// Blocks partitions d into consecutive blocks of the given size, in stream
// order. The final block may be smaller. It panics if size <= 0.
func (d *Dataset) Blocks(size int) []*Dataset {
	if size <= 0 {
		panic("data: Blocks with non-positive size")
	}
	n := len(d.Records)
	blocks := make([]*Dataset, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		blocks = append(blocks, d.Slice(lo, hi))
	}
	return blocks
}

// Entropy returns the Shannon entropy (in bits) of the class distribution.
func (d *Dataset) Entropy() float64 {
	return EntropyOfCounts(d.ClassCounts(), len(d.Records))
}

// EntropyOfCounts returns the entropy in bits of a count vector with the
// given total. A zero total yields 0.
func EntropyOfCounts(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}
