package compiled

import (
	"fmt"
	"math"
	"sort"

	"highorder/internal/classifier"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/obs"
)

// Predictor is the compiled twin of core.Predictor: the same online
// state machine (Eqs. 5–11 plus the explained-rate ring and sink
// introspection) evaluated over the compiled model's flat tables. Its
// float state — post, prior, acc, and the bayes scratch — lives in one
// struct-of-arrays backing slice, and the pruning order is cached while
// the prior is valid (the interpreted path re-sorts per Predict; the
// order is a pure function of the prior under a strict total order, so
// caching cannot change it).
//
// A Predictor is single-goroutine, exactly like core.Predictor: callers
// must serialize all access. It implements core.OnlinePredictor and is
// bit-identical to the interpreted predictor on every method — see the
// package equivalence contract.
type Predictor struct {
	m    *Model
	opts core.PredictorOptions

	// post | prior | acc | bbuf are views of one backing array.
	post  []float64
	prior []float64
	acc   []float64
	bbuf  []float64

	priorValid bool

	order      []int
	sorter     priorOrder
	orderValid bool

	observed int

	sink      obs.PredictorSink
	lastMAP   int
	driftMark int

	explained     []bool
	explainedNext int
	explainedN    int
}

var _ core.OnlinePredictor = (*Predictor)(nil)

// NewPredictor returns a compiled predictor with every concept equally
// probable, mirroring core.(*Model).NewPredictorWithOptions.
func (m *Model) NewPredictor(opts core.PredictorOptions) *Predictor {
	n, k := m.n, m.k
	backing := make([]float64, 2*n+2*k)
	p := &Predictor{
		m:         m,
		opts:      opts,
		post:      backing[:n:n],
		prior:     backing[n : 2*n : 2*n],
		acc:       backing[2*n : 2*n+k : 2*n+k],
		bbuf:      backing[2*n+k:],
		order:     make([]int, n),
		explained: make([]bool, core.ExplainWindow),
		lastMAP:   -1,
		driftMark: -1,
	}
	p.sorter = priorOrder{order: p.order, prior: p.prior}
	for c := range p.post {
		p.post[c] = 1 / float64(n)
	}
	return p
}

// ensurePrior computes P_t⁻ = P_{t-1}·χ (Eq. 5) if stale, adding in the
// interpreted order (source concept ascending) over the transposed χ. A
// recompute invalidates the cached pruning order.
//
//homlint:hotpath -- per-record compiled prior refresh
func (p *Predictor) ensurePrior() {
	if p.priorValid {
		return
	}
	n := len(p.post)
	chiT := p.m.chiT
	for j := 0; j < n; j++ {
		row := chiT[j*n : j*n+n]
		s := 0.0
		for i := 0; i < n; i++ {
			s += p.post[i] * row[i]
		}
		p.prior[j] = s
	}
	p.priorValid = true
	p.orderValid = false
}

// ensureOrder refreshes the cached pruning order. The comparator is a
// strict total order on concept indices (prior descending, index
// ascending on exact ties), so the sorted permutation is unique — any
// sort, from any starting permutation, reproduces the order the
// interpreted predictor computes per call.
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

// ActiveProbabilities returns a copy of the posterior P_t(c).
func (p *Predictor) ActiveProbabilities() []float64 {
	out := make([]float64, len(p.post))
	copy(out, p.post)
	return out
}

// PriorProbabilities returns a copy of the prior P_t⁻(c).
func (p *Predictor) PriorProbabilities() []float64 {
	p.ensurePrior()
	out := make([]float64, len(p.prior))
	copy(out, p.prior)
	return out
}

// Observed returns the number of labeled records consumed.
func (p *Predictor) Observed() int { return p.observed }

// CurrentConcept returns the posterior-MAP concept and its probability.
func (p *Predictor) CurrentConcept() (concept int, probability float64) {
	best := 0
	for c := 1; c < len(p.post); c++ {
		if p.post[c] > p.post[best] {
			best = c
		}
	}
	return best, p.post[best]
}

// RecentExplainedRate mirrors core.(*Predictor).RecentExplainedRate.
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
	return float64(correct) / float64(p.explainedN), p.explainedN == core.ExplainWindow
}

// SetSink installs (or removes) the introspection sink; see
// core.(*Predictor).SetSink.
func (p *Predictor) SetSink(s obs.PredictorSink) {
	p.sink = s
	p.lastMAP = -1
}

// MarkDrift records that the true stream concept changed now.
func (p *Predictor) MarkDrift() {
	p.driftMark = p.observed
}

// emitEvent mirrors core.(*Predictor).emitEvent.
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

// AdvanceTime advances the prior through steps record intervals without
// labels (§III-B), mirroring core.(*Predictor).AdvanceTime.
func (p *Predictor) AdvanceTime(steps int) {
	for s := 0; s < steps; s++ {
		p.ensurePrior()
		copy(p.post, p.prior)
		p.priorValid = false
	}
}

// Observe folds one labeled record into the active probabilities
// (Eqs. 7–9), mirroring core.(*Predictor).Observe over the compiled
// concept programs. Deliberately not a homlint hot path: labels arrive
// orders of magnitude slower than classify traffic, and the optional
// introspection sink (diagnostics, tests) is allowed to allocate here —
// matching the interpreted twin.
func (p *Predictor) Observe(y data.Record) {
	p.ensurePrior()
	n := len(p.post)
	mapConcept := 0
	for c := 1; c < n; c++ {
		if p.prior[c] > p.prior[mapConcept] {
			mapConcept = c
		}
	}
	p.explained[p.explainedNext] = p.m.conceptPredict(mapConcept, y.Values, p.bbuf) == y.Class
	p.explainedNext = (p.explainedNext + 1) % core.ExplainWindow
	if p.explainedN < core.ExplainWindow {
		p.explainedN++
	}
	sum := 0.0
	for c := 0; c < n; c++ {
		psi := p.m.errs[c]
		if p.m.conceptPredict(c, y.Values, p.bbuf) == y.Class {
			psi = 1 - p.m.errs[c]
		}
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

// PredictProba returns Σ_c P_t⁻(c)·M_c(l|x) (Eq. 10); the returned slice
// is reused across calls, mirroring core.(*Predictor).PredictProba.
func (p *Predictor) PredictProba(x data.Record) []float64 {
	return p.predictProbaValues(x.Values)
}

//homlint:hotpath -- per-record compiled ensemble distribution
func (p *Predictor) predictProbaValues(values []float64) []float64 {
	p.ensurePrior()
	acc := p.acc
	for l := range acc {
		acc[l] = 0
	}
	for c := 0; c < p.m.n; c++ {
		w := p.prior[c]
		if w == 0 { //homlint:allow floatcmp -- mirrors core.Predictor.PredictProba: skips only concepts explicitly zeroed (§III-C)
			continue
		}
		dist := p.m.conceptDist(c, values, p.bbuf)
		for l, v := range dist {
			acc[l] += w * v
		}
	}
	return acc
}

// Predict returns arg max_l Highorder(l|x) (Eq. 11), mirroring
// core.(*Predictor).Predict including the §III-C pruning loop.
func (p *Predictor) Predict(x data.Record) int {
	return p.predictValues(x.Values)
}

//homlint:hotpath -- the compiled per-record classify kernel
func (p *Predictor) predictValues(values []float64) int {
	p.ensurePrior()
	if p.opts.MAPOnly {
		best := 0
		for c := 1; c < len(p.prior); c++ {
			if p.prior[c] > p.prior[best] {
				best = c
			}
		}
		return p.m.conceptPredict(best, values, p.bbuf)
	}
	if p.opts.DisablePruning {
		return classifier.ArgMax(p.predictProbaValues(values))
	}

	n := len(p.prior)
	p.ensureOrder()
	acc := p.acc
	for l := range acc {
		acc[l] = 0
	}
	remaining := 1.0
	for rank := 0; rank < n; rank++ {
		c := p.order[rank]
		w := p.prior[c]
		remaining -= w
		if w > 0 {
			dist := p.m.conceptDist(c, values, p.bbuf)
			for l, v := range dist {
				acc[l] += w * v
			}
		}
		if remaining < 1e-12 {
			break
		}
		best, second := topTwo(acc)
		if acc[best]-acc[second] > remaining {
			break
		}
	}
	return classifier.ArgMax(acc)
}

// ClassifyBatch classifies every record of recs into preds (which must be
// at least as long) in one pass with zero allocations — the serve layer's
// batch classify fast path. Each prediction is bit-identical to calling
// Predict per record.
//
//homlint:hotpath -- the serve batch classify path
func (p *Predictor) ClassifyBatch(recs []data.Record, preds []int) {
	for i := range recs {
		preds[i] = p.predictValues(recs[i].Values)
	}
}

// Snapshot captures the portable online state, mirroring
// core.(*Predictor).Snapshot bit for bit.
func (p *Predictor) Snapshot() core.PredictorState {
	st := core.PredictorState{
		Active:    make([]float64, len(p.post)),
		Observed:  p.observed,
		Explained: make([]bool, 0, p.explainedN),
	}
	copy(st.Active, p.post)
	if p.explainedN == core.ExplainWindow {
		st.Explained = append(st.Explained, p.explained[p.explainedNext:]...)
		st.Explained = append(st.Explained, p.explained[:p.explainedNext]...)
	} else {
		st.Explained = append(st.Explained, p.explained[:p.explainedN]...)
	}
	return st
}

// Restore overwrites the online state from st, mirroring
// core.(*Predictor).Restore's validation and semantics exactly.
func (p *Predictor) Restore(st core.PredictorState) error {
	if len(st.Active) != len(p.post) {
		return fmt.Errorf("compiled: restore: state has %d concepts, model has %d", len(st.Active), len(p.post))
	}
	if len(st.Explained) > core.ExplainWindow {
		return fmt.Errorf("compiled: restore: explained window has %d entries, max %d", len(st.Explained), core.ExplainWindow)
	}
	if st.Observed < 0 {
		return fmt.Errorf("compiled: restore: negative observed count %d", st.Observed)
	}
	sum := 0.0
	for c, v := range st.Active {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("compiled: restore: active probability %v for concept %d", v, c)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("compiled: restore: active probabilities sum to %v", sum)
	}
	copy(p.post, st.Active)
	p.priorValid = false
	p.observed = st.Observed
	for i := range p.explained {
		p.explained[i] = false
	}
	copy(p.explained, st.Explained)
	p.explainedN = len(st.Explained)
	p.explainedNext = p.explainedN % core.ExplainWindow
	p.lastMAP = -1
	return nil
}

// topTwo mirrors core's topTwo.
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

// priorOrder mirrors core's priorOrder: concept indices by decreasing
// prior, exact ties broken by index — a strict total order, which is what
// makes the cached-order optimization sound.
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
