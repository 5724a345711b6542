package compiled

// The oracle is the interpreted online predictor exactly as core.Predictor
// implemented it before it took a concept evaluator: the same Eqs. 5–11,
// the same §III-C pruning (re-sorted on every Predict) and the same
// snapshot rules, calling each concept's classifier directly — twice for
// the MAP concept on Observe. It is the independent implementation the
// golden suite, the fuzzer and the pruning-work test check core.Predictor
// against, over both concept evaluators. It is a reference, not code to
// improve.

import (
	"fmt"
	"math"
	"sort"

	"highorder/internal/classifier"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/obs"
)

// oracle applies a high-order model to an online stream. It maintains
// the posterior active probability P_t(c) of every concept, updated from
// the labeled cue stream via Observe, and classifies unlabeled records via
// Predict/PredictProba using the prior P_t⁻(c) (Eq. 10), since labels lag
// the data being classified (§III-A).
//
// An oracle is single-goroutine.
type oracle struct {
	m    *core.Model
	opts core.PredictorOptions

	// post is P_{t-1}(c), the posterior after the last observed label.
	post []float64
	// prior is P_t⁻(c), derived lazily from post through χ (Eq. 5).
	prior      []float64
	priorValid bool

	// order caches concept indices sorted by decreasing prior for the
	// pruned prediction loop; sorter wraps it as a reusable sort.Interface
	// so the per-record Predict path allocates no comparator closure.
	order  []int
	sorter priorOrder
	// acc accumulates the weighted class distribution.
	acc []float64

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
const explainWindow = core.ExplainWindow

// newOracle returns an oracle with every concept equally probable
// (P_1(c) = 1/N, §III-B).
func newOracle(m *core.Model, opts core.PredictorOptions) *oracle {
	n := len(m.Concepts)
	p := &oracle{
		m:         m,
		opts:      opts,
		post:      make([]float64, n),
		prior:     make([]float64, n),
		order:     make([]int, n),
		acc:       make([]float64, m.Schema.NumClasses()),
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

// ActiveProbabilities returns the current posterior active probabilities
// P_t(c). The returned slice is a copy.
func (p *oracle) ActiveProbabilities() []float64 {
	out := make([]float64, len(p.post))
	copy(out, p.post)
	return out
}

// PriorProbabilities returns P_t⁻(c), the prior used to classify the next
// unlabeled record. The returned slice is a copy.
func (p *oracle) PriorProbabilities() []float64 {
	p.ensurePrior()
	out := make([]float64, len(p.prior))
	copy(out, p.prior)
	return out
}

// Observed returns the number of labeled records consumed.
func (p *oracle) Observed() int { return p.observed }

// CurrentConcept returns the most probable concept under the posterior
// active probabilities, with its probability.
func (p *oracle) CurrentConcept() (concept int, probability float64) {
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
func (p *oracle) RecentExplainedRate() (rate float64, full bool) {
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
func (p *oracle) SetSink(s obs.PredictorSink) {
	p.sink = s
	p.lastMAP = -1
}

// MarkDrift records that the true stream concept changed now (known to
// harnesses replaying annotated synthetic streams). Subsequent sink
// events report SinceDrift relative to this point, so a MAP switch's
// SinceDrift is the paper's detection lag.
func (p *oracle) MarkDrift() {
	p.driftMark = p.observed
}

// emitEvent builds and delivers one sink event; only called when a sink
// is set, keeping its allocations off the nil-sink path.
func (p *oracle) emitEvent() {
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

// ensurePrior computes P_t⁻ = P_{t-1}·χ (Eq. 5) if stale.
func (p *oracle) ensurePrior() {
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
}

// AdvanceTime advances the prior through steps additional record intervals
// without observing labels, supporting variable-rate streams (§III-B notes
// the equations adapt directly). The posterior becomes the advanced prior.
func (p *oracle) AdvanceTime(steps int) {
	for s := 0; s < steps; s++ {
		p.ensurePrior()
		copy(p.post, p.prior)
		p.priorValid = false
	}
}

// Observe folds one labeled record into the active probabilities:
// P_t(c) ∝ P_t⁻(c)·ψ(c, y_t) (Eqs. 7–9), where ψ is 1−Err_c when the
// concept's classifier labels y correctly and Err_c otherwise (Eq. 8).
func (p *oracle) Observe(y data.Record) {
	p.ensurePrior()
	n := len(p.post)
	// Track whether the currently most probable concept explains the
	// label, feeding RecentExplainedRate.
	mapConcept := 0
	for c := 1; c < n; c++ {
		if p.prior[c] > p.prior[mapConcept] {
			mapConcept = c
		}
	}
	p.explained[p.explainedNext] = p.m.Concepts[mapConcept].Model.Predict(y) == y.Class
	p.explainedNext = (p.explainedNext + 1) % explainWindow
	if p.explainedN < explainWindow {
		p.explainedN++
	}
	sum := 0.0
	for c := 0; c < n; c++ {
		concept := &p.m.Concepts[c]
		psi := concept.Err
		if concept.Model.Predict(y) == y.Class {
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
func (p *oracle) PredictProba(x data.Record) []float64 {
	p.ensurePrior()
	for l := range p.acc {
		p.acc[l] = 0
	}
	for c := range p.m.Concepts {
		w := p.prior[c]
		if w == 0 { //homlint:allow floatcmp -- pruning writes an exact 0; this skips only concepts explicitly zeroed (§III-C)
			continue
		}
		dist := p.m.Concepts[c].Model.PredictProba(x)
		for l, v := range dist {
			p.acc[l] += w * v
		}
	}
	return p.acc
}

// Predict returns arg max_l Highorder(l|x) (Eq. 11). When pruning is
// enabled it enumerates concepts in decreasing prior probability and stops
// as soon as the remaining probability mass cannot change the winning class
// (§III-C); with a clear current concept this consults a single classifier.
func (p *oracle) Predict(x data.Record) int {
	p.ensurePrior()
	if p.opts.MAPOnly {
		best := 0
		for c := 1; c < len(p.prior); c++ {
			if p.prior[c] > p.prior[best] {
				best = c
			}
		}
		return p.m.Concepts[best].Model.Predict(x)
	}
	if p.opts.DisablePruning {
		return classifier.ArgMax(p.PredictProba(x))
	}

	n := len(p.prior)
	for i := range p.order {
		p.order[i] = i
	}
	sort.Sort(&p.sorter)
	for l := range p.acc {
		p.acc[l] = 0
	}
	remaining := 1.0
	for rank := 0; rank < n; rank++ {
		c := p.order[rank]
		w := p.prior[c]
		remaining -= w
		if w > 0 {
			dist := p.m.Concepts[c].Model.PredictProba(x)
			for l, v := range dist {
				p.acc[l] += w * v
			}
		}
		if remaining < 1e-12 {
			break
		}
		// The unseen concepts contribute at most `remaining` to any class.
		best, second := topTwo(p.acc)
		if p.acc[best]-p.acc[second] > remaining {
			break
		}
	}
	return classifier.ArgMax(p.acc)
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
// index. It implements sort.Interface as a named type so the per-record
// prediction path pays no comparator-closure allocation.
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

// Snapshot captures the predictor's online state. The returned state shares
// no memory with the predictor.
func (p *oracle) Snapshot() core.PredictorState {
	st := core.PredictorState{
		Active:    make([]float64, len(p.post)),
		Observed:  p.observed,
		Explained: make([]bool, 0, p.explainedN),
	}
	copy(st.Active, p.post)
	// Unroll the ring into chronological order: when full, the oldest entry
	// is at explainedNext; before that, the ring is a plain prefix.
	if p.explainedN == explainWindow {
		st.Explained = append(st.Explained, p.explained[p.explainedNext:]...)
		st.Explained = append(st.Explained, p.explained[:p.explainedNext]...)
	} else {
		st.Explained = append(st.Explained, p.explained[:p.explainedN]...)
	}
	return st
}

// Restore overwrites the predictor's online state with st, as produced by
// Snapshot on a predictor over the same model. The posterior is restored
// verbatim, so Snapshot/Restore round-trips are bit-identical. Restore
// validates st against the model and leaves the predictor unchanged on
// error.
func (p *oracle) Restore(st core.PredictorState) error {
	if len(st.Active) != len(p.post) {
		return fmt.Errorf("oracle: restore: state has %d concepts, model has %d", len(st.Active), len(p.post))
	}
	if len(st.Explained) > explainWindow {
		return fmt.Errorf("oracle: restore: explained window has %d entries, max %d", len(st.Explained), explainWindow)
	}
	if st.Observed < 0 {
		return fmt.Errorf("oracle: restore: negative observed count %d", st.Observed)
	}
	sum := 0.0
	for c, v := range st.Active {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("oracle: restore: active probability %v for concept %d", v, c)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("oracle: restore: active probabilities sum to %v", sum)
	}
	copy(p.post, st.Active)
	p.priorValid = false
	p.observed = st.Observed
	for i := range p.explained {
		p.explained[i] = false
	}
	copy(p.explained, st.Explained)
	p.explainedN = len(st.Explained)
	p.explainedNext = p.explainedN % explainWindow
	// The restored posterior is a new baseline for the introspection
	// stream: the first event after a restore must not report a switch.
	p.lastMAP = -1
	return nil
}
