package cluster

import (
	"container/heap"
	"math"

	"highorder/internal/classifier"
	"highorder/internal/data"
)

// node is a cluster in the agglomerative process and, simultaneously, a
// dendrogram node. Leaves are the input blocks (step 1) or chunks (step 2);
// internal nodes record the merge order.
type node struct {
	id int

	// all is Du — every record of the cluster. In step 1 the records are
	// contiguous in stream order; in step 2 they are the concatenation of
	// the member chunks. The views share the historical dataset's backing
	// storage, so a merger splices segment headers instead of copying
	// records.
	all *data.View
	// train and test are the holdout halves (§II-B): the model is trained
	// on train and Err is measured on test.
	train *data.View
	test  *data.View
	// order is train's presorted form when the learner keeps one
	// (classifier.OrderedLearner): built from the leaf's train half, then
	// merged from the children's at every merger, which drops theirs. nil
	// for merged-away nodes and for learners without orders.
	order classifier.Order

	model classifier.Classifier
	// err is Err_u, the holdout validation error of model, and testWrong
	// the integer mistake count it was computed from (err = testWrong /
	// test.Len()). Keeping the count lets merged-cluster errors be
	// recombined exactly without rescanning the larger test half.
	err       float64
	testWrong int
	// errStar is Err*_u, the error of the locally optimal partition of Du
	// (§II-C.2).
	errStar float64

	// left and right are the dendrogram children; nil for input nodes.
	left, right *node

	// dead marks nodes that have been merged into a parent.
	dead bool
	// frozen marks nodes excluded from further merging by the early-
	// termination optimization (§II-D).
	frozen bool

	// preds caches the model's predictions on the shared sample list
	// prefix L[0:len(preds)] used by the step-2 similarity measure.
	preds []int

	// refs counts edges currently in the merge queue that reference this
	// node; the queue uses it to bound its stale-edge estimate.
	refs int

	// members lists the input-node ids contained in this cluster, used to
	// recover which chunks form each concept.
	members []int
}

// size returns |Du|.
func (n *node) size() int { return n.all.Len() }

// weightedErr returns |Du|·Err_u, the node's contribution to Q (Eq. 1).
func (n *node) weightedErr() float64 { return float64(n.size()) * n.err }

// live reports whether the node can still participate in mergers.
func (n *node) live() bool { return !n.dead && !n.frozen }

// errStdErr estimates the standard error of the node's holdout error rate
// (binomial, with a half-record continuity floor so a zero-error estimate
// on a tiny test half is not treated as exact).
func (n *node) errStdErr() float64 {
	if n.test == nil || n.test.Len() == 0 {
		return 1
	}
	nt := n.test.Len()
	return math.Sqrt(n.err*(1-n.err)/float64(nt)) + 0.5/float64(nt)
}

// edge is a candidate merger between two live clusters, with the
// merge-order key dist. Step 1 precomputes the merged model (Eq. 2 needs
// Err_w); step 2 computes dist from model similarity alone (Eq. 3) and
// leaves merged nil until the merger happens.
type edge struct {
	u, v *node
	dist float64
	// merged carries the classifier and validation error already computed
	// for Du ∪ Dv during step-1 distance evaluation, so the winning merger
	// does not retrain.
	merged *mergedEval
	// ahead is a step-2 merger's evaluation, trained ahead beside an
	// earlier merger and not yet charged (engine.evalPopped).
	ahead *mergedEval
}

// mergedEval is the precomputed evaluation of a prospective merger: the
// classifier, its validation error on the merged test half, and the
// integer mistake count behind it, plus the work it took — a reuse, or a
// training on copied records — until engine.charge counts it.
type mergedEval struct {
	model  classifier.Classifier
	err    float64
	wrong  int
	reused bool
	copied int
}

// stale reports whether either endpoint has been consumed or frozen since
// the edge was pushed.
func (e *edge) stale() bool { return !e.u.live() || !e.v.live() }

// edgeHeap is a min-heap of candidate mergers ordered by dist, with
// deterministic tie-breaking on endpoint ids so runs are reproducible.
type edgeHeap []*edge

func (h edgeHeap) Len() int { return len(h) }

func (h edgeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist { //homlint:allow floatcmp -- deterministic tie-break: only bitwise-equal distances fall through to the id ordering
		return h[i].dist < h[j].dist
	}
	if h[i].u.id != h[j].u.id {
		return h[i].u.id < h[j].u.id
	}
	return h[i].v.id < h[j].v.id
}

func (h edgeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *edgeHeap) Push(x any) { *h = append(*h, x.(*edge)) }

func (h *edgeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// mergeQueue wraps the edge heap with stale-edge accounting and periodic
// pruning. Long step-2 runs would otherwise hold every superseded edge in
// memory until it happened to reach the top; pruning drops stale edges in
// bulk once they exceed half the heap. Because the heap's ordering is a
// total order (dist, then endpoint ids) and pruning only removes edges
// popBest would discard anyway, the popBest sequence is provably
// unchanged by pruning — heapPruneInvariant_test asserts it.
type mergeQueue struct {
	h edgeHeap
	// stale is an upper-bound estimate of stale edges in h, maintained
	// from node refcounts: when a node dies every queued edge touching it
	// goes stale. Edges whose endpoints both die are counted twice, so
	// pruning can only trigger early, never late.
	stale int
	// minPrune disables pruning below this heap size; tests lower it to
	// force the prune path.
	minPrune int
	// pruned counts edges dropped by pruning, for the build span args.
	pruned int64
}

func newMergeQueue() *mergeQueue {
	return &mergeQueue{minPrune: 64}
}

// push adds a candidate merger.
func (q *mergeQueue) push(e *edge) {
	e.u.refs++
	e.v.refs++
	heap.Push(&q.h, e)
}

// popBest removes and returns the non-stale candidate with the smallest
// distance, or nil when none remain.
func (q *mergeQueue) popBest() *edge {
	for q.h.Len() > 0 {
		e := heap.Pop(&q.h).(*edge)
		e.u.refs--
		e.v.refs--
		if !e.stale() {
			return e
		}
		if q.stale > 0 {
			q.stale--
		}
	}
	return nil
}

// peekLimit bounds how many queued edges peek inspects.
const peekLimit = 64

// peek returns the best queued edge that want accepts, visiting edges
// best first from the heap's top, at most peekLimit of them; nil when none
// of those qualifies. It leaves the queue as it is: popping the stale
// edges it passes would move the stale estimate, and with it when
// maybePrune runs and what EdgesPruned counts.
func (q *mergeQueue) peek(want func(*edge) bool) *edge {
	// frontier holds the heap positions whose parents were visited and
	// rejected; every visit removes one and adds at most two.
	var frontier [peekLimit + 1]int
	n := 0
	if len(q.h) > 0 {
		n = 1
	}
	for seen := 0; seen < peekLimit && n > 0; seen++ {
		b := 0
		for k := 1; k < n; k++ {
			if q.h.Less(frontier[k], frontier[b]) {
				b = k
			}
		}
		i := frontier[b]
		n--
		frontier[b] = frontier[n]
		if want(q.h[i]) {
			return q.h[i]
		}
		for c := 2*i + 1; c <= 2*i+2 && c < len(q.h); c++ {
			frontier[n] = c
			n++
		}
	}
	return nil
}

// noteDead records that n has been merged away (or frozen): every queued
// edge referencing it is now stale.
func (q *mergeQueue) noteDead(n *node) {
	q.stale += n.refs
}

// maybePrune drops all stale edges and restores the heap invariant when
// the stale estimate exceeds half the heap. Amortized cost is O(1) per
// merger: a prune is linear but at least halves the heap.
func (q *mergeQueue) maybePrune() {
	if q.h.Len() < q.minPrune || 2*q.stale < q.h.Len() {
		return
	}
	kept := q.h[:0]
	for _, e := range q.h {
		if e.stale() {
			e.u.refs--
			e.v.refs--
			q.pruned++
			continue
		}
		kept = append(kept, e)
	}
	// Release the dropped tail so pruned edges (and their precomputed
	// models) become collectible.
	for i := len(kept); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = kept
	heap.Init(&q.h)
	q.stale = 0
}
