package cluster

import (
	"fmt"

	"highorder/internal/classifier"
	"highorder/internal/data"
)

// This file is the naive reference engine: the pre-optimization cost
// model of the agglomeration loop, plugged in through the package-private
// Options.agglomerate hook. It evaluates every candidate serially, copies
// every record of both children at every merger, rescans the whole merged
// test half even when a classifier is reused, and never prunes stale
// edges. golden_test.go requires the optimized engine to match it merger
// by merger, bit for bit, which makes it the oracle for the §II-D reuse
// and early-stop optimizations.

// agglomerateNaive is the serial reference counterpart of agglomerate.
func (e *engine) agglomerateNaive(nodes []*node, complete bool) []*node {
	if len(nodes) == 1 {
		return nodes
	}
	q := newMergeQueue()
	// The reference holds every edge until it reaches the top.
	q.minPrune = int(^uint(0) >> 1)
	step2Edge := e.similarityEdge
	if e.opts.Step2DeltaQ {
		step2Edge = e.deltaQEdgeNaive
	}
	if complete {
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				q.push(step2Edge(nodes[i], nodes[j]))
			}
		}
	} else {
		for i := 0; i+1 < len(nodes); i++ {
			q.push(e.deltaQEdgeNaive(nodes[i], nodes[i+1]))
		}
	}

	leftOf := map[*node]*node{}
	rightOf := map[*node]*node{}
	if !complete {
		for i := range nodes {
			if i > 0 {
				leftOf[nodes[i]] = nodes[i-1]
			}
			if i+1 < len(nodes) {
				rightOf[nodes[i]] = nodes[i+1]
			}
		}
	}

	// Ordered live list, same as the optimized engine: the heap's total
	// order already makes results independent of fan-out push order, but
	// iterating a map here would trip the determinism analyzer.
	liveNodes := append(make([]*node, 0, 2*len(nodes)), nodes...)

	for {
		best := q.popBest()
		if best == nil {
			break
		}
		w := e.mergeNaive(best)
		liveNodes = append(liveNodes, w)
		if e.shouldFreeze(w) {
			w.frozen = true
		}
		if complete {
			if !w.frozen {
				for _, n := range fanoutTargets(&liveNodes, w) {
					q.push(step2Edge(w, n))
				}
			}
			continue
		}
		l := leftOf[best.u]
		r := rightOf[best.v]
		delete(leftOf, best.u)
		delete(leftOf, best.v)
		delete(rightOf, best.u)
		delete(rightOf, best.v)
		if l != nil {
			leftOf[w] = l
			rightOf[l] = w
			if l.live() && !w.frozen {
				q.push(e.deltaQEdgeNaive(l, w))
			}
		}
		if r != nil {
			rightOf[w] = r
			leftOf[r] = w
			if r.live() && !w.frozen {
				q.push(e.deltaQEdgeNaive(w, r))
			}
		}
	}

	var roots []*node
	for _, n := range liveNodes {
		if !n.dead {
			roots = append(roots, n)
		}
	}
	orderByFirstMember(roots)
	return roots
}

// deltaQEdgeNaive is deltaQEdge over the naive evaluation path.
func (e *engine) deltaQEdgeNaive(u, v *node) *edge {
	e.edgesEvaluated.Add(1)
	me := e.evalMergedNaive(u, v)
	dq := float64(u.size()+v.size())*me.err - u.weightedErr() - v.weightedErr()
	return &edge{u: u, v: v, dist: dq, merged: me}
}

// evalMergedNaive materializes the merged train and test sets and always
// rescans the full test concatenation — the pre-optimization cost model.
func (e *engine) evalMergedNaive(u, v *node) *mergedEval {
	big, small := u, v
	if small.size() > big.size() {
		big, small = small, big
	}
	test := e.concatCopy(big.test, small.test)
	if e.opts.ReuseRatio > 0 && float64(small.size()) <= e.opts.ReuseRatio*float64(big.size()) {
		e.modelsReused.Add(1)
		wrong := classifier.Mistakes(big.model, test.Records)
		return &mergedEval{model: big.model, err: errorRate(wrong, test.Len()), wrong: wrong}
	}
	train := e.concatCopy(big.train, small.train)
	model, err := e.train(train)
	if err != nil {
		panic(fmt.Sprintf("cluster: training merged cluster: %v", err))
	}
	wrong := classifier.Mistakes(model, test.Records)
	return &mergedEval{model: model, err: errorRate(wrong, test.Len()), wrong: wrong}
}

// mergeNaive executes the winning candidate with full record copies for
// the parent's record sets and a serially rebuilt prediction cache.
func (e *engine) mergeNaive(ed *edge) *node {
	u, v := ed.u, ed.v
	u.dead, v.dead = true, true
	e.stats.Mergers++

	me := ed.merged
	if me == nil { // step 2: evaluate now
		me = e.evalMergedNaive(u, v)
	}
	w := &node{
		id:        e.allocID(),
		all:       data.ViewOf(e.concatCopy(u.all, v.all)),
		train:     data.ViewOf(e.concatCopy(u.train, v.train)),
		test:      data.ViewOf(e.concatCopy(u.test, v.test)),
		model:     me.model,
		err:       me.err,
		testWrong: me.wrong,
		left:      u,
		right:     v,
	}
	w.members = append(append([]int{}, u.members...), v.members...)
	childStar := (float64(u.size())*u.errStar + float64(v.size())*v.errStar) / float64(w.size())
	w.errStar = w.err
	if childStar < w.errStar {
		w.errStar = childStar
	}
	if e.sample != nil {
		e.cachePredsSerial(w)
	}
	e.logMerge(u, v, w)
	return w
}

// concatCopy flattens two views into a freshly copied contiguous dataset,
// counting the copy — every naive merger and evaluation pays it.
func (e *engine) concatCopy(a, b *data.View) *data.Dataset {
	recs := make([]data.Record, 0, a.Len()+b.Len())
	recs = a.AppendTo(recs)
	recs = b.AppendTo(recs)
	e.recordsCopied.Add(int64(len(recs)))
	return &data.Dataset{Schema: a.Schema(), Records: recs}
}
