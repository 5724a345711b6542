package core

import (
	"sort"

	"highorder/internal/classifier"
	"highorder/internal/data"
	"highorder/internal/obs"
)

// PredictorOptions configure online prediction.
type PredictorOptions struct {
	// DisablePruning turns off the active-probability pruning of §III-C,
	// forcing Predict to consult every concept's classifier (ablation).
	DisablePruning bool
	// MAPOnly makes Predict use only the single most probable concept's
	// classifier instead of the weighted ensemble of Eq. 10 (ablation of
	// the "simplest way" the paper rejects in §III-C).
	MAPOnly bool
}

// ConceptEvaluator answers one concept's classifier, M_c(x), for a
// Predictor, which owns everything else: the active probabilities, the
// ensemble and the pruning (Eqs. 5–11). NewPredictor evaluates each
// concept with the model's own classifiers, so any classifier.Learner
// works; internal/compiled evaluates from flat decision tables.
//
// scratch has one entry per class and belongs to the calling predictor:
// an evaluator may write it and return it. The predictor treats a
// returned distribution as read-only and drops it before the next call.
type ConceptEvaluator interface {
	// ConceptPredict returns concept c's predicted class for x.
	ConceptPredict(c int, x data.Record, scratch []float64) int
	// ConceptDist returns concept c's class distribution for x.
	ConceptDist(c int, x data.Record, scratch []float64) []float64
}

// classifiers evaluates each concept of a Model with the concept's own
// trained classifier.
type classifiers Model

func (m *classifiers) ConceptPredict(c int, x data.Record, _ []float64) int {
	return m.Concepts[c].Model.Predict(x)
}

func (m *classifiers) ConceptDist(c int, x data.Record, _ []float64) []float64 {
	return m.Concepts[c].Model.PredictProba(x)
}

// Predictor applies a high-order model to an online stream. It maintains
// the posterior active probability P_t(c) of every concept, updated from
// the labeled cue stream via Observe, and classifies unlabeled records via
// Predict/PredictProba using the prior P_t⁻(c) (Eq. 10), since labels lag
// the data being classified (§III-A). Its float state — post, prior, acc
// and the evaluator's scratch — lives in one backing array, and the
// pruning order is cached while the prior is valid.
//
// A Predictor is single-goroutine: it is not safe for concurrent use, and
// every method (including the read-only accessors, which can lazily refresh
// the prior) may mutate internal state. A layer that shares one predictor
// across goroutines must serialize all access behind one lock — this is
// exactly what internal/serve does with its per-session mutex. Use
// Snapshot/Restore to persist or inspect the online state across that
// boundary.
type Predictor struct {
	m        *Model
	concepts ConceptEvaluator
	opts     PredictorOptions

	// post is P_{t-1}(c), the posterior after the last observed label.
	post []float64
	// prior is P_t⁻(c), derived lazily from post through χ (Eq. 5).
	prior      []float64
	priorValid bool
	// acc accumulates the weighted class distribution; scratch is lent to
	// the evaluator.
	acc     []float64
	scratch []float64

	// order caches concept indices sorted by decreasing prior for the
	// pruned prediction loop, refreshed after the prior changes; sorter
	// wraps it as a reusable sort.Interface so the refresh allocates no
	// comparator closure.
	order      []int
	sorter     priorOrder
	orderValid bool

	// observed counts labeled records seen, for diagnostics.
	observed int

	// sink receives one introspection event per Observe when non-nil; the
	// nil path costs one pointer check (see SetSink).
	sink obs.PredictorSink
	// lastMAP is the MAP concept reported in the previous sink event, or
	// -1 before the first event; maintained only while a sink is set.
	lastMAP int
	// driftMark is the observed count at the last MarkDrift call, or -1.
	driftMark int

	// explained is a ring buffer over the last explainWindow labeled
	// records: whether the then-most-probable concept classified the
	// record correctly. A persistently low rate means no historical
	// concept explains the current stream — a concept the history never
	// contained (the one failure mode the paper's offline model cannot
	// recover from by itself).
	explained     []bool
	explainedNext int
	explainedN    int
}

// explainWindow is the ring size behind RecentExplainedRate.
const explainWindow = 50

// ExplainWindow exposes the RecentExplainedRate ring size, which also
// bounds PredictorState.Explained.
const ExplainWindow = explainWindow

// NewPredictor returns a predictor with every concept equally probable
// (P_1(c) = 1/N, §III-B).
func (m *Model) NewPredictor() *Predictor {
	return m.NewPredictorWithOptions(PredictorOptions{})
}

// NewPredictorWithOptions returns a predictor with explicit options.
func (m *Model) NewPredictorWithOptions(opts PredictorOptions) *Predictor {
	return m.NewPredictorOver((*classifiers)(m), opts)
}

// NewPredictorOver returns a predictor over m that evaluates concept c
// through concepts, which must answer exactly as m.Concepts[c].Model does.
func (m *Model) NewPredictorOver(concepts ConceptEvaluator, opts PredictorOptions) *Predictor {
	n, k := len(m.Concepts), m.Schema.NumClasses()
	backing := make([]float64, 2*n+2*k)
	p := &Predictor{
		m:         m,
		concepts:  concepts,
		opts:      opts,
		post:      backing[:n:n],
		prior:     backing[n : 2*n : 2*n],
		acc:       backing[2*n : 2*n+k : 2*n+k],
		scratch:   backing[2*n+k:],
		order:     make([]int, n),
		explained: make([]bool, explainWindow),
		lastMAP:   -1,
		driftMark: -1,
	}
	p.sorter = priorOrder{order: p.order, prior: p.prior}
	for c := range p.post {
		p.post[c] = 1 / float64(n)
	}
	return p
}

// Concepts returns the evaluator the predictor consults for each concept.
func (p *Predictor) Concepts() ConceptEvaluator { return p.concepts }

// ActiveProbabilities returns the current posterior active probabilities
// P_t(c). The returned slice is a copy.
func (p *Predictor) ActiveProbabilities() []float64 {
	out := make([]float64, len(p.post))
	copy(out, p.post)
	return out
}

// PriorProbabilities returns P_t⁻(c), the prior used to classify the next
// unlabeled record. The returned slice is a copy.
func (p *Predictor) PriorProbabilities() []float64 {
	p.ensurePrior()
	out := make([]float64, len(p.prior))
	copy(out, p.prior)
	return out
}

// Observed returns the number of labeled records consumed.
func (p *Predictor) Observed() int { return p.observed }

// CurrentConcept returns the most probable concept under the posterior
// active probabilities, with its probability.
func (p *Predictor) CurrentConcept() (concept int, probability float64) {
	best := 0
	for c := 1; c < len(p.post); c++ {
		if p.post[c] > p.post[best] {
			best = c
		}
	}
	return best, p.post[best]
}

// RecentExplainedRate returns the fraction of the last 50 labeled records
// that the then-most-probable concept classified correctly, and whether
// the window is full. A persistently low rate (well below 1 − Err of the
// known concepts) signals that the stream is in a concept the historical
// dataset never contained; the application should collect the period's
// records and rebuild (the paper's offline model cannot learn new concepts
// online — this signal is the library's extension point for that gap).
func (p *Predictor) RecentExplainedRate() (rate float64, full bool) {
	if p.explainedN == 0 {
		return 1, false
	}
	correct := 0
	for i := 0; i < p.explainedN; i++ {
		if p.explained[i] {
			correct++
		}
	}
	return float64(correct) / float64(p.explainedN), p.explainedN == explainWindow
}

// SetSink installs (or, with nil, removes) the predictor's introspection
// sink. While set, every Observe emits one obs.PredictorEvent — the
// posterior vector, the MAP concept, whether it switched, and the lag
// since the last MarkDrift — after the active-probability update. The
// sink runs inline on the Observe path and is subject to the predictor's
// single-goroutine contract. With a nil sink the entire mechanism costs
// one pointer check per Observe and zero allocations (see
// BenchmarkPredictorObserveNilSink).
func (p *Predictor) SetSink(s obs.PredictorSink) {
	p.sink = s
	p.lastMAP = -1
}

// MarkDrift records that the true stream concept changed now (known to
// harnesses replaying annotated synthetic streams). Subsequent sink
// events report SinceDrift relative to this point, so a MAP switch's
// SinceDrift is the paper's detection lag.
func (p *Predictor) MarkDrift() {
	p.driftMark = p.observed
}

// emitEvent builds and delivers one sink event; only called when a sink
// is set, keeping its allocations off the nil-sink path.
func (p *Predictor) emitEvent() {
	best := 0
	for c := 1; c < len(p.post); c++ {
		if p.post[c] > p.post[best] {
			best = c
		}
	}
	ev := obs.PredictorEvent{
		Seq:        p.observed,
		Active:     append([]float64(nil), p.post...),
		MAP:        best,
		Prob:       p.post[best],
		PrevMAP:    p.lastMAP,
		Switched:   p.lastMAP >= 0 && best != p.lastMAP,
		SinceDrift: -1,
	}
	if p.driftMark >= 0 {
		ev.SinceDrift = p.observed - p.driftMark
	}
	p.lastMAP = best
	p.sink.ObserveEvent(ev)
}

// Learn implements classifier.Online as an alias for Observe, so the
// predictor plugs into the shared test-then-train evaluation harness.
func (p *Predictor) Learn(y data.Record) { p.Observe(y) }

// Name implements classifier.Online.
func (p *Predictor) Name() string { return "high-order" }

// ensurePrior computes P_t⁻ = P_{t-1}·χ (Eq. 5) if stale, adding source
// concepts in ascending order. A recompute invalidates the pruning order.
//
//homlint:hotpath -- per-record prior refresh
func (p *Predictor) ensurePrior() {
	if p.priorValid {
		return
	}
	chi := p.m.Chi
	n := len(p.post)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += p.post[i] * chi[i][j]
		}
		p.prior[j] = s
	}
	p.priorValid = true
	p.orderValid = false
}

// ensureOrder refreshes the cached pruning order. The comparator is a
// strict total order on concept indices (prior descending, index
// ascending on exact ties), so the sorted permutation is a pure function
// of the prior, and caching it cannot change it.
func (p *Predictor) ensureOrder() {
	if p.orderValid {
		return
	}
	for i := range p.order {
		p.order[i] = i
	}
	sort.Sort(&p.sorter)
	p.orderValid = true
}

// AdvanceTime advances the prior through steps additional record intervals
// without observing labels, supporting variable-rate streams (§III-B notes
// the equations adapt directly). The posterior becomes the advanced prior.
func (p *Predictor) AdvanceTime(steps int) {
	for s := 0; s < steps; s++ {
		p.ensurePrior()
		copy(p.post, p.prior)
		p.priorValid = false
	}
}

// Observe folds one labeled record into the active probabilities:
// P_t(c) ∝ P_t⁻(c)·ψ(c, y_t) (Eqs. 7–9), where ψ is 1−Err_c when the
// concept's classifier labels y correctly and Err_c otherwise (Eq. 8).
// Each concept's classifier runs once; the prior-MAP concept's answer
// also feeds RecentExplainedRate. Deliberately not a homlint hot path:
// labels arrive far slower than classify traffic, and the optional sink
// may allocate.
func (p *Predictor) Observe(y data.Record) {
	p.ensurePrior()
	n := len(p.post)
	mapConcept := 0
	for c := 1; c < n; c++ {
		if p.prior[c] > p.prior[mapConcept] {
			mapConcept = c
		}
	}
	sum := 0.0
	for c := 0; c < n; c++ {
		hit := p.concepts.ConceptPredict(c, y, p.scratch) == y.Class
		if c == mapConcept {
			p.explained[p.explainedNext] = hit
		}
		concept := &p.m.Concepts[c]
		psi := concept.Err
		if hit {
			psi = 1 - concept.Err
		}
		// Floor ψ so a zero-validation-error concept cannot be ruled out
		// forever by a single noisy label.
		if psi < 1e-6 {
			psi = 1e-6
		}
		p.post[c] = p.prior[c] * psi
		sum += p.post[c]
	}
	p.explainedNext = (p.explainedNext + 1) % explainWindow
	if p.explainedN < explainWindow {
		p.explainedN++
	}
	if sum <= 0 {
		for c := range p.post {
			p.post[c] = 1 / float64(n)
		}
	} else {
		for c := range p.post {
			p.post[c] /= sum
		}
	}
	p.priorValid = false
	p.observed++
	if p.sink != nil {
		p.emitEvent()
	}
}

// PredictProba returns Highorder(l|x) = Σ_c P_t⁻(c)·M_c(l|x) (Eq. 10).
// The returned slice is reused across calls.
//
//homlint:hotpath -- per-record ensemble distribution
func (p *Predictor) PredictProba(x data.Record) []float64 {
	p.ensurePrior()
	acc := p.acc
	for l := range acc {
		acc[l] = 0
	}
	for c, w := range p.prior {
		if w == 0 { //homlint:allow floatcmp -- pruning writes an exact 0; this skips only concepts explicitly zeroed (§III-C)
			continue
		}
		dist := p.concepts.ConceptDist(c, x, p.scratch)
		for l, v := range dist {
			acc[l] += w * v
		}
	}
	return acc
}

// Predict returns arg max_l Highorder(l|x) (Eq. 11). When pruning is
// enabled it enumerates concepts in decreasing prior probability and stops
// as soon as the remaining probability mass cannot change the winning class
// (§III-C); with a clear current concept this consults a single classifier.
//
//homlint:hotpath -- the per-record classify kernel
func (p *Predictor) Predict(x data.Record) int {
	p.ensurePrior()
	if p.opts.MAPOnly {
		best := 0
		for c := 1; c < len(p.prior); c++ {
			if p.prior[c] > p.prior[best] {
				best = c
			}
		}
		return p.concepts.ConceptPredict(best, x, p.scratch)
	}
	if p.opts.DisablePruning {
		return classifier.ArgMax(p.PredictProba(x))
	}

	p.ensureOrder()
	acc := p.acc
	for l := range acc {
		acc[l] = 0
	}
	remaining := 1.0
	for _, c := range p.order {
		w := p.prior[c]
		remaining -= w
		if w > 0 {
			dist := p.concepts.ConceptDist(c, x, p.scratch)
			for l, v := range dist {
				acc[l] += w * v
			}
		}
		if remaining < 1e-12 {
			break
		}
		// The unseen concepts contribute at most `remaining` to any class.
		best, second := topTwo(acc)
		if acc[best]-acc[second] > remaining {
			break
		}
	}
	return classifier.ArgMax(acc)
}

// ClassifyBatch writes Predict of every record of recs, labels ignored,
// into preds (which must be at least as long), allocating nothing — the
// serve layer's classify path.
//
//homlint:hotpath -- the serve batch classify path
func (p *Predictor) ClassifyBatch(recs []data.Record, preds []int) {
	for i := range recs {
		preds[i] = p.Predict(data.Record{Values: recs[i].Values})
	}
}

// topTwo returns the indices of the largest and second-largest values.
func topTwo(v []float64) (best, second int) {
	best = 0
	second = -1
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			second = best
			best = i
		} else if second == -1 || v[i] > v[second] {
			second = i
		}
	}
	if second == -1 {
		second = best
	}
	return best, second
}

// priorOrder sorts concept indices by decreasing prior, ties broken by
// index. It implements sort.Interface as a named type so the order refresh
// pays no comparator-closure allocation.
type priorOrder struct {
	order []int
	prior []float64
}

func (s *priorOrder) Len() int      { return len(s.order) }
func (s *priorOrder) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *priorOrder) Less(i, j int) bool {
	a, b := s.order[i], s.order[j]
	if s.prior[a] != s.prior[b] { //homlint:allow floatcmp -- exact tie detection; ties fall through to the index tie-break
		return s.prior[a] > s.prior[b]
	}
	return a < b
}
