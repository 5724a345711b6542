package cluster

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"highorder/internal/classifier"
	"highorder/internal/data"
	"highorder/internal/rng"
)

// engine runs one agglomerative pass. The same engine instance is used for
// both steps so training counts aggregate.
type engine struct {
	opts    Options
	learner classifier.Learner
	src     *rng.Source
	stats   Stats
	nextID  int
	// pool is the shared worker pool every parallel phase dispatches
	// through: leaf training, initial edge builds, per-merger
	// re-evaluations, and prediction caching.
	pool *workerPool

	// Work counters are atomic because trainings and evaluations run in
	// parallel.
	modelsTrained  atomic.Int64
	edgesEvaluated atomic.Int64
	recordsCopied  atomic.Int64
	modelsReused   atomic.Int64
	// edgesPruned aggregates merge-queue pruning; it is only touched from
	// the sequential orchestration loop.
	edgesPruned int64

	// sample is the shared shuffled list L of holdout records used by the
	// step-2 similarity measure (§II-C.1). It is assembled once from all
	// step-2 input nodes' test halves.
	sample []data.Record
	// predsFree recycles prediction buffers of merged-away nodes; it is
	// only touched from the sequential orchestration loop.
	predsFree [][]int
}

// mergeRecord is one executed merger as captured through the package-
// private Options.mergeLog hook: the child and parent ids in execution
// order plus the parent's exact validation numbers. The golden-
// equivalence test compares optimized and reference engines on it.
type mergeRecord struct {
	U, V, W int
	Size    int
	Wrong   int
	Err     float64
	ErrStar float64
}

// workCounters is a snapshot of the engine's work counters, used to
// record per-phase deltas under the build spans.
type workCounters struct {
	trained, edges, copied, reused, pruned, mergers int64
}

func (e *engine) counters() workCounters {
	return workCounters{
		trained: e.modelsTrained.Load(),
		edges:   e.edgesEvaluated.Load(),
		copied:  e.recordsCopied.Load(),
		reused:  e.modelsReused.Load(),
		pruned:  e.edgesPruned,
		mergers: int64(e.stats.Mergers),
	}
}

// workers returns the configured training parallelism.
func (e *engine) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// errorRate converts a mistake count into an error rate, treating an
// empty test set as errorless like classifier.ErrorRate.
func errorRate(wrong, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(wrong) / float64(n)
}

// makeLeaves builds all input nodes, training their models in parallel.
// Each block's holdout split draws from its own source, pre-assigned
// sequentially, so the result is independent of the worker count
// (Algorithm 1, lines 2–7).
func (e *engine) makeLeaves(blocks []*data.Dataset) ([]*node, error) {
	nodes := make([]*node, len(blocks))
	sources := make([]*rng.Source, len(blocks))
	for i := range blocks {
		sources[i] = e.src.Split()
	}
	errs := make([]error, len(blocks))
	e.pool.run(len(blocks), func(i int) {
		train, test := blocks[i].SplitHoldout(sources[i])
		e.recordsCopied.Add(int64(blocks[i].Len()))
		model, err := e.train(train)
		if err != nil {
			errs[i] = fmt.Errorf("cluster: step 1 leaf %d: %w", i, err) //homlint:allow hotpathalloc -- error construction on the failure path only
			return
		}
		wrong := classifier.Mistakes(model, test.Records)
		errRate := errorRate(wrong, test.Len())
		nodes[i] = &node{
			id:        i,
			all:       data.ViewOf(blocks[i]),
			train:     data.ViewOf(train),
			test:      data.ViewOf(test),
			model:     model,
			err:       errRate,
			testWrong: wrong,
			errStar:   errRate,
			members:   []int{i},
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

func (e *engine) train(d *data.Dataset) (classifier.Classifier, error) {
	e.modelsTrained.Add(1)
	return e.learner.Train(d)
}

// prepareSamples builds the shared sample list L from the nodes' test
// halves, shuffles it, and caches each node's predictions on its prefix
// (§II-C.1: Au[1..k], k = |Du_test|). The per-node caches are independent
// models, so they are filled in parallel.
func (e *engine) prepareSamples(nodes []*node) {
	total := 0
	for _, n := range nodes {
		total += n.test.Len()
	}
	all := make([]data.Record, 0, total)
	for _, n := range nodes {
		all = n.test.AppendTo(all)
	}
	e.recordsCopied.Add(int64(len(all)))
	e.src.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	e.sample = all
	e.pool.run(len(nodes), func(i int) { e.cachePredsSerial(nodes[i]) })
}

// cachePreds stores n's model predictions on L[0:|Dn_test|], splitting
// the prefix into fixed-size ranges dispatched through the worker pool.
// The grain is a constant, not a function of the worker count, so every
// slot is written with the same value whatever the parallelism. It must
// only be called from the sequential orchestration loop (it dispatches
// pool work and touches the buffer free list).
//
//homlint:hotpath -- per-sample prediction caching inside the merge loop
func (e *engine) cachePreds(n *node) {
	k := n.test.Len()
	if k > len(e.sample) {
		k = len(e.sample)
	}
	preds := e.predsBuf(k)
	const grain = 512
	if e.pool.parallel() && k >= 2*grain {
		chunks := (k + grain - 1) / grain
		e.pool.run(chunks, func(ci int) { //homlint:allow hotpathalloc -- one dispatch closure amortized over >=1024 predictions
			lo := ci * grain
			hi := lo + grain
			if hi > k {
				hi = k
			}
			for i := lo; i < hi; i++ {
				preds[i] = n.model.Predict(e.sample[i])
			}
		})
	} else {
		for i := 0; i < k; i++ {
			preds[i] = n.model.Predict(e.sample[i])
		}
	}
	n.preds = preds
}

// inheritPreds fills w's prediction cache when w's model was reused from
// child from: the prefix the child already predicted is identical (same
// model, deterministic Predict), so only the tail up to w's larger test
// length is computed. The pre-optimization engine re-predicted the whole
// prefix; the reference path keeps doing so.
//
//homlint:hotpath -- merge-loop prediction-cache reuse
func (e *engine) inheritPreds(w, from *node) {
	k := w.test.Len()
	if k > len(e.sample) {
		k = len(e.sample)
	}
	old := from.preds
	from.preds = nil
	done := len(old)
	var preds []int
	if cap(old) >= k {
		preds = old[:k]
	} else {
		preds = e.predsBuf(k)
		copy(preds, old)
		e.predsFree = append(e.predsFree, old) //homlint:allow hotpathalloc -- free-list push, amortized and off the per-sample loop
	}
	for i := done; i < k; i++ {
		preds[i] = w.model.Predict(e.sample[i])
	}
	w.preds = preds
}

// cachePredsSerial is the pool-free variant, safe to call from inside
// pool workers (prepareSamples) and used by the reference engine. It
// always allocates a fresh buffer.
func (e *engine) cachePredsSerial(n *node) {
	k := n.test.Len()
	if k > len(e.sample) {
		k = len(e.sample)
	}
	preds := make([]int, k)
	for i := 0; i < k; i++ {
		preds[i] = n.model.Predict(e.sample[i])
	}
	n.preds = preds
}

// predsBuf returns a prediction buffer of length k, recycling buffers of
// merged-away nodes when one is large enough.
func (e *engine) predsBuf(k int) []int {
	for len(e.predsFree) > 0 {
		last := len(e.predsFree) - 1
		buf := e.predsFree[last]
		e.predsFree = e.predsFree[:last]
		if cap(buf) >= k {
			return buf[:k]
		}
	}
	return make([]int, k)
}

// releasePreds recycles the prediction buffers of nodes that can no
// longer participate in similarity evaluations.
func (e *engine) releasePreds(ns ...*node) {
	for _, n := range ns {
		if n.preds != nil {
			e.predsFree = append(e.predsFree, n.preds)
			n.preds = nil
		}
	}
}

// agglomerate repeatedly merges the closest pair until no candidate
// remains, returning the roots of the dendrogram forest. complete selects
// the step-2 behavior: complete merge graph and similarity distance;
// otherwise the chain graph and ΔQ distance of step 1.
//
// Candidate evaluations are dispatched through the worker pool and their
// results pushed onto the merge queue in a fixed order (initial edges by
// index, relink edges left-then-right, fan-out edges in live-list order).
// Together with the queue's total order on (dist, u.id, v.id), that makes
// the merge sequence — and therefore the whole dendrogram — bit-identical
// across worker counts.
func (e *engine) agglomerate(nodes []*node, complete bool) []*node {
	if len(nodes) == 1 {
		return nodes
	}
	q := newMergeQueue()
	step2Edge := e.similarityEdge
	if e.opts.Step2DeltaQ {
		step2Edge = e.deltaQEdge
	}
	if complete {
		// The O(n²) complete-graph edge build: evaluate every pair in
		// parallel, then push in (i, j) order.
		type pair struct{ i, j int }
		pairs := make([]pair, 0, len(nodes)*(len(nodes)-1)/2)
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				pairs = append(pairs, pair{i, j})
			}
		}
		edges := make([]*edge, len(pairs))
		e.pool.run(len(pairs), func(pi int) {
			edges[pi] = step2Edge(nodes[pairs[pi].i], nodes[pairs[pi].j])
		})
		for _, ed := range edges {
			q.push(ed)
		}
	} else {
		// The initial chain edges are independent classifier trainings;
		// evaluate them in parallel, then push in order.
		edges := make([]*edge, len(nodes)-1)
		e.pool.run(len(edges), func(i int) {
			edges[i] = e.deltaQEdge(nodes[i], nodes[i+1])
		})
		for _, ed := range edges {
			q.push(ed)
		}
	}

	// left/right chain neighbors for step 1, maintained across mergers.
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

	// liveNodes is the ordered list of not-yet-merged nodes — input order,
	// then merge-creation order. The step-2 fan-out iterates it instead of
	// ranging over a map, so the edge dispatch and push order are
	// deterministic by construction.
	liveNodes := append(make([]*node, 0, 2*len(nodes)), nodes...)

	for {
		best := q.popBest()
		if best == nil {
			break
		}
		w := e.merge(best)
		q.noteDead(best.u)
		q.noteDead(best.v)
		liveNodes = append(liveNodes, w)
		if e.shouldFreeze(w) {
			w.frozen = true
		}
		if complete {
			if !w.frozen {
				targets := fanoutTargets(&liveNodes, w)
				newEdges := make([]*edge, len(targets))
				e.pool.run(len(targets), func(i int) {
					newEdges[i] = step2Edge(w, targets[i])
				})
				for _, ed := range newEdges {
					q.push(ed)
				}
			}
			q.maybePrune()
			continue
		}
		// Relink the chain: w inherits u's left neighbor and v's right
		// neighbor (u precedes v in stream order by construction).
		l := leftOf[best.u]
		r := rightOf[best.v]
		delete(leftOf, best.u)
		delete(leftOf, best.v)
		delete(rightOf, best.u)
		delete(rightOf, best.v)
		if l != nil {
			leftOf[w] = l
			rightOf[l] = w
		}
		if r != nil {
			rightOf[w] = r
			leftOf[r] = w
		}
		needL := l != nil && l.live() && !w.frozen
		needR := r != nil && r.live() && !w.frozen
		switch {
		case needL && needR:
			// The two relink re-evaluations are independent trainings;
			// run both through the pool and push left-then-right.
			relink := make([]*edge, 2)
			e.pool.run(2, func(i int) {
				if i == 0 {
					relink[0] = e.deltaQEdge(l, w)
				} else {
					relink[1] = e.deltaQEdge(w, r)
				}
			})
			q.push(relink[0])
			q.push(relink[1])
		case needL:
			q.push(e.deltaQEdge(l, w))
		case needR:
			q.push(e.deltaQEdge(w, r))
		}
		q.maybePrune()
	}
	e.edgesPruned += q.pruned

	var roots []*node
	for _, n := range liveNodes {
		if !n.dead {
			roots = append(roots, n)
		}
	}
	// Deterministic order.
	orderByFirstMember(roots)
	return roots
}

// fanoutTargets compacts the ordered live list in place, dropping merged
// nodes, and returns the step-2 fan-out targets for w in list order.
func fanoutTargets(liveNodes *[]*node, w *node) []*node {
	ns := *liveNodes
	kept := ns[:0]
	var targets []*node
	for _, n := range ns {
		if n.dead {
			continue
		}
		kept = append(kept, n)
		if n != w && n.live() {
			targets = append(targets, n)
		}
	}
	for i := len(kept); i < len(ns); i++ {
		ns[i] = nil
	}
	*liveNodes = kept
	return targets
}

// shouldFreeze implements the early-termination test (§II-D).
func (e *engine) shouldFreeze(n *node) bool {
	if e.opts.EarlyStopMinSize <= 0 {
		return false
	}
	return n.size() >= e.opts.EarlyStopMinSize && n.err >= e.opts.EarlyStopFactor*n.errStar
}

// deltaQEdge evaluates the step-1 merge candidate (u, v): train a model on
// the union and key the edge by ΔQ (Eq. 2). The trained model is kept on
// the edge so the winning merger does not retrain.
func (e *engine) deltaQEdge(u, v *node) *edge {
	e.edgesEvaluated.Add(1)
	me := e.evalMerged(u, v)
	dq := float64(u.size()+v.size())*me.err - u.weightedErr() - v.weightedErr()
	return &edge{u: u, v: v, dist: dq, merged: me}
}

// similarityEdge evaluates the step-2 candidate (u, v) by the distance of
// Eq. 3: (|Du|+|Dv|)·(1 − sim(Mu, Mv)), where sim is the agreement of the
// two models on the shared sample prefix (Eq. 4). It only reads the
// cached prediction arrays, so it is safe to evaluate concurrently.
//
//homlint:hotpath -- O(n²) candidate-edge evaluation in the merge loop
func (e *engine) similarityEdge(u, v *node) *edge {
	e.edgesEvaluated.Add(1)
	k := len(u.preds)
	if len(v.preds) < k {
		k = len(v.preds)
	}
	sim := 1.0
	if k > 0 {
		same := 0
		for i := 0; i < k; i++ {
			if u.preds[i] == v.preds[i] {
				same++
			}
		}
		sim = float64(same) / float64(k)
	}
	d := float64(u.size()+v.size()) * (1 - sim)
	return &edge{u: u, v: v, dist: d}
}

// evalMerged trains and validates a model for Du ∪ Dv, honoring the
// classifier-reuse optimization for very unbalanced mergers. Validation
// recombines integer mistake counts: the reuse path scans only the
// smaller test half — the larger half's count is cached on its node —
// which is bit-identical to rescanning the whole concatenation because
// the counts are integers and the final division is the same.
func (e *engine) evalMerged(u, v *node) *mergedEval {
	big, small := u, v
	if small.size() > big.size() {
		big, small = small, big
	}
	testLen := big.test.Len() + small.test.Len()
	if e.opts.ReuseRatio > 0 && float64(small.size()) <= e.opts.ReuseRatio*float64(big.size()) {
		e.modelsReused.Add(1)
		wrong := big.testWrong + e.mistakes(big.model, small.test)
		return &mergedEval{model: big.model, err: errorRate(wrong, testLen), wrong: wrong}
	}
	train := e.materialize(big.train.Concat(small.train))
	model, err := e.train(train)
	if err != nil {
		// Training on a merged non-empty dataset cannot fail for the
		// learners in this repository; treat it as a programming error.
		panic(fmt.Sprintf("cluster: training merged cluster: %v", err)) //homlint:allow hotpathalloc -- panic message on a cannot-happen path
	}
	wrong := e.mistakes(model, big.test) + e.mistakes(model, small.test)
	return &mergedEval{model: model, err: errorRate(wrong, testLen), wrong: wrong}
}

// mistakes counts c's misclassifications over a view without flattening
// it.
func (e *engine) mistakes(c classifier.Classifier, v *data.View) int {
	wrong := 0
	for _, seg := range v.Segments() {
		wrong += classifier.Mistakes(c, seg)
	}
	return wrong
}

// materialize flattens a view into the contiguous dataset a learner
// needs, counting the copy — the one place the optimized merge path still
// copies records.
func (e *engine) materialize(v *data.View) *data.Dataset {
	e.recordsCopied.Add(int64(v.Len()))
	return v.Materialize()
}

// merge executes the winning candidate and returns the parent node with its
// Err* computed per Algorithm 1, line 19. The parent's record sets are
// zero-copy concat views over the children's, so a merger costs
// O(segments), not O(records).
func (e *engine) merge(ed *edge) *node {
	u, v := ed.u, ed.v
	u.dead, v.dead = true, true
	e.stats.Mergers++

	me := ed.merged
	if me == nil { // step 2: evaluate now
		me = e.evalMerged(u, v)
	}
	w := &node{
		id:        e.allocID(),
		all:       u.all.Concat(v.all),
		train:     u.train.Concat(v.train),
		test:      u.test.Concat(v.test),
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
		switch {
		case w.model == u.model:
			e.inheritPreds(w, u)
		case w.model == v.model:
			e.inheritPreds(w, v)
		default:
			e.cachePreds(w)
		}
		e.releasePreds(u, v)
	}
	e.logMerge(u, v, w)
	return w
}

// logMerge appends to the package-private merge log when a test hooked
// one in.
func (e *engine) logMerge(u, v, w *node) {
	if e.opts.mergeLog == nil {
		return
	}
	*e.opts.mergeLog = append(*e.opts.mergeLog, mergeRecord{
		U: u.id, V: v.id, W: w.id,
		Size: w.size(), Wrong: w.testWrong, Err: w.err, ErrStar: w.errStar,
	})
}

func (e *engine) allocID() int {
	id := e.nextID
	e.nextID++
	return id
}
