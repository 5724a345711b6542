// Package classifier defines the interfaces every base learner in the
// repository implements, plus small reference learners and evaluation
// helpers. The concept-clustering algorithm, the high-order model, and the
// RePro/WCE baselines are all parameterized over Learner, matching the
// paper's remark that base models may be learned "by any method designed
// for mining stationary data" (§II-B).
package classifier

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"highorder/internal/data"
)

// Classifier is a trained model over a fixed schema.
type Classifier interface {
	// Predict returns the predicted class index for r. Predict must be
	// safe for concurrent use on a fixed model: the concept-clustering
	// engine evaluates candidate mergers in parallel and may call Predict
	// on the same classifier from several goroutines at once.
	Predict(r data.Record) int
	// PredictProba returns a probability distribution over classes for r.
	// The returned slice must not be retained or mutated by the caller
	// across calls; implementations may reuse a buffer.
	PredictProba(r data.Record) []float64
}

// Learner trains classifiers from datasets.
type Learner interface {
	// Train learns a classifier from d. It returns an error when d cannot
	// support training (e.g. it is empty).
	Train(d *data.Dataset) (Classifier, error)
	// Name identifies the learner in experiment output.
	Name() string
}

// OrderedLearner is a Learner that can keep the presorted form of a
// training set and train on the concatenation of two such sets without
// sorting it again or copying its records. The concept-clustering engine
// trains every candidate merger on exactly such a concatenation; learners
// without this interface train it through Train on a copy.
type OrderedLearner interface {
	Learner
	// NewOrder presorts d. It fails where Train(d) would fail on d's
	// values.
	NewOrder(d *data.Dataset) (Order, error)
	// ConcatOrder returns the order of x's records followed by y's. It
	// consumes x and y: their memory may back later orders, so neither
	// may be used again.
	ConcatOrder(x, y Order) Order
	// TrainConcat trains on v's records, which are x's followed by y's,
	// reading them in place, and returns the classifier Train would on a
	// dataset of them.
	TrainConcat(v *data.View, x, y Order) (Classifier, error)
}

// Order is an OrderedLearner's presorted form of one training set. Only
// the learner that made it can read it.
type Order interface {
	// Len returns the number of records the order covers.
	Len() int
}

// ErrorRate returns the fraction of records in d misclassified by c.
// An empty dataset yields 0.
func ErrorRate(c Classifier, d *data.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	wrong := 0
	for _, r := range d.Records {
		if c.Predict(r) != r.Class {
			wrong++
		}
	}
	return float64(wrong) / float64(d.Len())
}

// Mistakes returns the number of records in recs misclassified by c.
// Because the count is an integer, error rates over concatenations can be
// recombined exactly: summing Mistakes over segments and dividing by the
// total length is bit-identical to a single scan of the concatenation —
// the identity the clustering engine's reuse path relies on.
func Mistakes(c Classifier, recs []data.Record) int {
	wrong := 0
	for _, r := range recs {
		if c.Predict(r) != r.Class {
			wrong++
		}
	}
	return wrong
}

// Agreement returns the fraction of the records on which a and b predict
// the same class — the model-similarity measure of Eq. 4. An empty record
// slice yields 1 (vacuous agreement).
func Agreement(a, b Classifier, records []data.Record) float64 {
	if len(records) == 0 {
		return 1
	}
	same := 0
	for _, r := range records {
		if a.Predict(r) == b.Predict(r) {
			same++
		}
	}
	return float64(same) / float64(len(records))
}

// ArgMax returns the index of the largest value, breaking ties toward the
// lower index. It panics on an empty slice.
func ArgMax(p []float64) int {
	if len(p) == 0 {
		panic("classifier: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

// Majority is a degenerate classifier that always predicts one class with
// the training set's empirical class distribution as its probabilities.
// It is the fallback the tree and clustering code use for empty or pure
// data, and a useful baseline in tests.
type Majority struct {
	class int
	dist  []float64
}

// NewMajority returns a Majority classifier predicting class with the given
// distribution. The distribution is copied.
func NewMajority(class int, dist []float64) *Majority {
	d := make([]float64, len(dist))
	copy(d, dist)
	return &Majority{class: class, dist: d}
}

// Predict returns the fixed majority class.
func (m *Majority) Predict(data.Record) int { return m.class }

// PredictProba returns the training class distribution.
func (m *Majority) PredictProba(data.Record) []float64 { return m.dist }

// majorityWire mirrors Majority with exported fields for gob persistence.
type majorityWire struct {
	Class int
	Dist  []float64
}

// GobEncode implements gob.GobEncoder.
func (m *Majority) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(majorityWire{Class: m.class, Dist: m.dist})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *Majority) GobDecode(b []byte) error {
	var w majorityWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	m.class, m.dist = w.Class, w.Dist
	return nil
}

// MajorityLearner trains Majority classifiers.
type MajorityLearner struct{}

// Train returns a Majority classifier for d's majority class.
func (MajorityLearner) Train(d *data.Dataset) (Classifier, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("classifier: cannot train on empty dataset") //homlint:allow hotpathalloc -- error construction on the failure path only
	}
	return NewMajority(d.MajorityClass(), d.ClassDistribution()), nil
}

// Name returns "majority".
func (MajorityLearner) Name() string { return "majority" }

// MustTrain trains with l and panics on error. It is a convenience for
// tests and examples where training failure is a programming error.
func MustTrain(l Learner, d *data.Dataset) Classifier {
	c, err := l.Train(d)
	if err != nil {
		panic(err)
	}
	return c
}
