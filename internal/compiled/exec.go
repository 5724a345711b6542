package compiled

import (
	"math"

	"highorder/internal/classifier"
	"highorder/internal/core"
	"highorder/internal/data"
)

// halfLog2Pi is the Gaussian normalization constant, produced at init by
// the same expression bayes.posteriorInto evaluates inline, so the
// compiled subtraction chain sees a bit-identical operand.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// treeWalk walks values to the deepest reachable node of p's tree and
// returns its flat index. It mirrors tree.(*Tree).leafFor exactly,
// including the documented nominal fallback rule: a nominal value selects
// branch int(v) only when v >= 0 && v < float64(nchild) (checked in float
// space); anything else — including a branch the grower never built
// (childIdx -1) — stops the walk at the current node.
//
//homlint:hotpath -- per-record compiled tree walk
func (m *Model) treeWalk(p *program, values []float64) int32 {
	nodes := m.nodes
	childIdx := m.childIdx
	idx := p.root
	for {
		nd := &nodes[idx]
		if nd.nchild == 0 {
			return idx
		}
		next := int32(-1)
		if nd.numeric {
			if values[nd.attr] <= nd.thr {
				next = childIdx[nd.child]
			} else {
				next = childIdx[nd.child+1]
			}
		} else {
			v := values[nd.attr]
			if v >= 0 && v < float64(nd.nchild) {
				next = childIdx[nd.child+int32(v)]
			}
		}
		if next < 0 {
			return idx
		}
		idx = next
	}
}

// bayesPosteriorInto writes the normalized class posteriors into logp
// (length k) and returns it. It mirrors bayes.(*Model).posteriorInto
// operation for operation: same per-attribute loop, same left-associative
// log-density expression (with log σ read from the arena instead of
// recomputed), same log-sum-exp normalization and non-finite fallback.
//
//homlint:hotpath -- per-record compiled bayes evaluation
func (m *Model) bayesPosteriorInto(p *program, values []float64, logp []float64) []float64 {
	k := m.k
	arena := m.arena
	copy(logp, arena[p.logPrio:int(p.logPrio)+k])
	for bi := p.battrOff; bi < p.battrOff+p.battrN; bi++ {
		ba := &m.battrs[bi]
		if ba.nominal {
			// Shared nominal fallback rule: range-check in float space.
			fv := values[ba.attr]
			if !(fv >= 0 && fv < float64(ba.card)) {
				continue
			}
			base := ba.off + int32(fv)
			card := ba.card
			for c := 0; c < k; c++ {
				logp[c] += arena[base+int32(c)*card]
			}
			continue
		}
		x := values[ba.attr]
		mean := arena[ba.off : int(ba.off)+k]
		sd := arena[int(ba.off)+k : int(ba.off)+2*k]
		logSD := arena[int(ba.off)+2*k : int(ba.off)+3*k]
		for c := 0; c < k; c++ {
			z := (x - mean[c]) / sd[c]
			logp[c] += -0.5*z*z - logSD[c] - halfLog2Pi
		}
	}
	maxLog := logp[0]
	for _, v := range logp[1:] {
		if v > maxLog {
			maxLog = v
		}
	}
	if math.IsInf(maxLog, -1) || math.IsNaN(maxLog) {
		for c := 0; c < k; c++ {
			logp[c] = 1 / float64(k)
		}
		return logp
	}
	sum := 0.0
	for c := 0; c < k; c++ {
		logp[c] = math.Exp(logp[c] - maxLog)
		sum += logp[c]
	}
	for c := 0; c < k; c++ {
		logp[c] /= sum
	}
	return logp
}

// ConceptPredict returns concept c's predicted class for x (labels
// ignored); scratch must have length k (the bayes posterior buffer). It
// answers exactly as the source model's classifier does.
//
//homlint:hotpath -- per-record compiled concept dispatch
func (m *Model) ConceptPredict(c int, x data.Record, scratch []float64) int {
	p := &m.progs[c]
	if p.kind == progBayes {
		return classifier.ArgMax(m.bayesPosteriorInto(p, x.Values, scratch))
	}
	return int(m.nodes[m.treeWalk(p, x.Values)].class)
}

// ConceptDist returns concept c's class distribution for x (labels
// ignored); scratch must have length k and may be the returned slice
// (bayes). A tree's answer aliases the arena and must be treated as
// read-only.
//
//homlint:hotpath -- per-record compiled concept dispatch
func (m *Model) ConceptDist(c int, x data.Record, scratch []float64) []float64 {
	p := &m.progs[c]
	if p.kind == progBayes {
		return m.bayesPosteriorInto(p, x.Values, scratch)
	}
	nd := &m.nodes[m.treeWalk(p, x.Values)]
	return m.arena[nd.dist : int(nd.dist)+m.k]
}

// Predictor is core's online predictor; this name for it stays for the
// benchmark module, which refers to *compiled.Predictor.
type Predictor = core.Predictor

// NewPredictor returns a predictor over the source model that evaluates
// every concept from m's tables, with every concept equally probable.
func (m *Model) NewPredictor(opts core.PredictorOptions) *Predictor {
	return m.src.NewPredictorOver(m, opts)
}
