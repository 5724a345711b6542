// Package cluster implements the paper's concept-clustering algorithm
// (§II, Algorithm 1): a two-step agglomerative hierarchical clustering that
// first merges adjacent equal-size data blocks into chunks (concept
// occurrences) and then merges chunks — possibly far apart in time — into
// stable concepts.
//
// Both steps share one engine. The quality of a partition P is
//
//	Q(P) = Σ_{Di∈P} |Di|·Err_i                               (Eq. 1)
//
// where Err_i is the holdout validation error of a base model trained on
// Di. Step 1 orders mergers by the ΔQ they cause (Eq. 2) over a chain graph
// of adjacent blocks; step 2 orders them by the model-similarity distance
// (Eqs. 3–4) over a complete graph, measured on a shared shuffled sample of
// the holdout halves. During merging the engine maintains Err*_w — the
// error of the locally optimal partition of each dendrogram node — and the
// final partition is obtained by cutting the dendrogram top-down wherever
// Err*_w < Err_w (§II-C.2).
package cluster

import (
	"fmt"

	"highorder/internal/classifier"
	"highorder/internal/data"
	"highorder/internal/obs"
	"highorder/internal/rng"
)

// Options configure the clustering.
type Options struct {
	// Learner trains base models for clusters. Required.
	Learner classifier.Learner
	// BlockSize is the number of records per step-1 block. The paper
	// recommends a small value (2–20, §II-A); values < 2 select the
	// default of 10.
	BlockSize int
	// Seed drives the holdout splits and the shared sample shuffle.
	Seed int64

	// EarlyStopMinSize and EarlyStopFactor implement the early-termination
	// optimization (§II-D): a cluster with at least EarlyStopMinSize
	// records whose Err is at least EarlyStopFactor times its Err* stops
	// participating in mergers, as its merger would be discarded by the
	// final cut anyway. The paper suggests 2000 records and a factor of
	// 1.2. EarlyStopMinSize <= 0 disables the optimization.
	EarlyStopMinSize int
	EarlyStopFactor  float64

	// ReuseRatio enables the classifier-reuse optimization (§II-D): when a
	// merger is at least 1/ReuseRatio times larger than its sibling, the
	// larger cluster's classifier is reused for the merged cluster instead
	// of retraining. 0 disables reuse.
	ReuseRatio float64

	// Workers is the number of goroutines used for the independent
	// classifier trainings of the build (leaf initialization and initial
	// candidate-merger evaluation). Results are deterministic regardless
	// of Workers because every unit of work has its own pre-assigned
	// random source. <= 0 selects GOMAXPROCS.
	Workers int

	// mergeLog, when non-nil, receives one record per executed merger in
	// execution order. Package-private: only equivalence tests hook it.
	mergeLog *[]mergeRecord
	// agglomerate, when non-nil, replaces the engine's merge loop for both
	// steps. Package-private: only the golden-equivalence test sets it,
	// to run the naive reference loop (naive_test.go) as the oracle.
	agglomerate func(e *engine, nodes []*node, complete bool) []*node

	// Step2DeltaQ makes step 2 order mergers by ΔQ (Eq. 2) instead of the
	// model-similarity distance (Eq. 3). The paper rejects this because a
	// complete graph then needs a trained classifier per candidate pair —
	// O(n²) trainings (§II-C.1); the option exists for the ablation bench
	// that quantifies the cost.
	Step2DeltaQ bool

	// KeepDendrogram retains the step-2 merge tree on the result for
	// analysis and visualization tools. Off by default to avoid holding
	// the intermediate structures alive.
	KeepDendrogram bool

	// Span is the parent flight span the clustering nests its phase spans
	// under (block building, step-1 chunk merge, step-2 concept merge);
	// the zero span disables tracing at zero cost. Phase spans are created
	// only in this sequential entry path — the parallel training workers
	// only bump the work counters each phase reports as instant children —
	// so the recorded span tree is deterministic for a fixed seed.
	Span obs.FlightSpan

	// CutSlack controls how much better a partition must be before the
	// final cut splits a dendrogram node: the node splits only when
	// Err_w − Err*_w exceeds CutSlack standard errors of the holdout
	// estimate. Holdout errors on small test halves are noisy, and the
	// exact comparison of §II-C.2 then splits off spurious fragment
	// concepts around change boundaries. 0 selects the default of 1;
	// negative values select the paper's exact comparison.
	CutSlack float64
}

func (o Options) withDefaults() (Options, error) {
	if o.Learner == nil {
		return o, fmt.Errorf("cluster: Options.Learner is required")
	}
	if o.BlockSize < 2 {
		o.BlockSize = 10
	}
	if o.EarlyStopFactor <= 1 {
		o.EarlyStopFactor = 1.2
	}
	if o.CutSlack == 0 { //homlint:allow floatcmp -- 0 is the exact "unset" sentinel of the option, never a computed value
		o.CutSlack = 1
	} else if o.CutSlack < 0 {
		o.CutSlack = 0
	}
	return o, nil
}

// Occurrence is one contiguous segment of the historical stream that
// belongs to a single concept: the paper's "concept occurrence" (§II-A).
type Occurrence struct {
	// Start and End delimit the record range [Start, End) in the
	// historical dataset.
	Start, End int
	// Concept is the index of the concept this occurrence was assigned to
	// by step 2.
	Concept int
}

// Len returns the number of records in the occurrence.
func (o Occurrence) Len() int { return o.End - o.Start }

// Concept is one stable concept discovered by step 2.
type Concept struct {
	// Model is the base classifier for the concept.
	Model classifier.Classifier
	// Err is the concept model's holdout validation error, used by the
	// online predictor's ψ (Eq. 8).
	Err float64
	// Size is the total number of historical records assigned to the
	// concept.
	Size int
	// Occurrences indexes into Clustering.Occurrences.
	Occurrences []int
}

// Clustering is the result of the two-step concept clustering.
type Clustering struct {
	// Concepts are the discovered stable concepts.
	Concepts []Concept
	// Occurrences lists every concept occurrence in stream order.
	Occurrences []Occurrence
	// Stats reports work done, for the efficiency experiments.
	Stats Stats
	// Dendrogram holds the step-2 merge forest roots when
	// Options.KeepDendrogram was set; nil otherwise.
	Dendrogram []*DendrogramNode
}

// DendrogramNode is an exported view of one step-2 merge-tree node: the
// record count, the holdout error Err and the locally optimal partition
// error Err* (§II-C.2), the chunk ids it contains, and whether the final
// cut selected it as a concept.
type DendrogramNode struct {
	// Size is |D_w|.
	Size int
	// Err is the node's holdout validation error; ErrStar is Err*_w.
	Err, ErrStar float64
	// Chunks are the step-1 chunk indices contained in the node.
	Chunks []int
	// Final marks the nodes the cut selected as concepts.
	Final bool
	// Left and Right are the merge children; nil for chunk leaves.
	Left, Right *DendrogramNode
}

// exportDendrogram converts the internal merge forest, marking final
// clusters.
func exportDendrogram(roots []*node, final []*node) []*DendrogramNode {
	inFinal := make(map[*node]bool, len(final))
	for _, n := range final {
		inFinal[n] = true
	}
	var convert func(n *node) *DendrogramNode
	convert = func(n *node) *DendrogramNode {
		if n == nil {
			return nil
		}
		return &DendrogramNode{
			Size:    n.size(),
			Err:     n.err,
			ErrStar: n.errStar,
			Chunks:  append([]int{}, n.members...),
			Final:   inFinal[n],
			Left:    convert(n.left),
			Right:   convert(n.right),
		}
	}
	out := make([]*DendrogramNode, len(roots))
	for i, r := range roots {
		out[i] = convert(r)
	}
	return out
}

// Stats counts the work performed by a clustering run.
type Stats struct {
	// Blocks is the number of step-1 input blocks.
	Blocks int
	// Chunks is the number of concept occurrences step 1 produced.
	Chunks int
	// ModelsTrained counts base-classifier trainings across both steps.
	ModelsTrained int
	// Mergers counts executed mergers across both steps.
	Mergers int
	// EdgesEvaluated counts candidate-merger evaluations — ΔQ trainings
	// and similarity comparisons — across both steps.
	EdgesEvaluated int
	// EdgesPruned counts stale candidate edges dropped from the merge
	// queue in bulk before they reached the top.
	EdgesPruned int
	// ModelsReused counts mergers resolved by the classifier-reuse
	// optimization (§II-D) instead of a retraining.
	ModelsReused int
	// RecordsCopied counts record copies the engine performed: holdout
	// splits, training-set materializations, and the shared sample build.
	// The zero-copy dataset views exist to drive this down.
	RecordsCopied int
}

// Span names of the clustering phases and of the work counts each phase
// records as instant children, interned once (see obs.InternName).
var (
	spanBlockBuild     = obs.InternName("block_build")
	spanChunkMerge     = obs.InternName("chunk_merge")
	spanConceptMerge   = obs.InternName("concept_merge")
	spanModelsTrained  = obs.InternName("models_trained")
	spanEdgesEvaluated = obs.InternName("edges_evaluated")
	spanEdgesPruned    = obs.InternName("edges_pruned")
	spanModelsReused   = obs.InternName("models_reused")
	spanRecordsCopied  = obs.InternName("records_copied")
	spanMergers        = obs.InternName("mergers")
)

// ClusterConcepts runs both steps on the historical dataset and returns the
// discovered concepts and occurrences.
func ClusterConcepts(hist *data.Dataset, opts Options) (*Clustering, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if hist.Len() < 2*o.BlockSize {
		return nil, fmt.Errorf("cluster: historical dataset has %d records, need at least %d (two blocks)", hist.Len(), 2*o.BlockSize)
	}
	src := rng.New(o.Seed)
	eng := &engine{opts: o, learner: o.Learner, src: src}
	eng.pool = newWorkerPool(eng.workers())
	defer eng.pool.close()
	agglomerate := (*engine).agglomerate
	if o.agglomerate != nil {
		agglomerate = o.agglomerate
	}

	// Step 1: adjacent blocks → chunks (concept occurrences). A short tail
	// block is folded into its predecessor so every node can hold two
	// mutually exclusive holdout halves (§II-B).
	spBlocks := o.Span.Child(spanBlockBuild)
	blocks := hist.Blocks(o.BlockSize)
	if n := len(blocks); n > 1 && blocks[n-1].Len() < o.BlockSize {
		blocks[n-2] = blocks[n-2].Concat(blocks[n-1])
		blocks = blocks[:n-1]
	}
	step1, err := eng.makeLeaves(blocks)
	spBlocks.SetArg(int64(len(blocks)))
	blockMark := eng.counters()
	recordWork(spBlocks, workCounters{}, blockMark)
	spBlocks.End()
	if err != nil {
		return nil, err
	}
	spChunk := o.Span.Child(spanChunkMerge)
	eng.nextID = len(blocks)
	roots1 := agglomerate(eng, step1, false)
	chunkNodes := cut(roots1, o.CutSlack)
	// The cut returns clusters of contiguous blocks; order them by stream
	// position so chunk i precedes chunk i+1 in time.
	orderByFirstMember(chunkNodes)

	// Record the occurrence boundaries before step 2 reassigns ids. The
	// last block may have absorbed the short tail, so its end is the end
	// of the stream.
	blockEnd := func(i int) int {
		if i == len(blocks)-1 {
			return hist.Len()
		}
		return (i + 1) * o.BlockSize
	}
	occs := make([]Occurrence, len(chunkNodes))
	for i, c := range chunkNodes {
		first, last := memberRange(c)
		occs[i] = Occurrence{Start: first * o.BlockSize, End: blockEnd(last), Concept: -1}
	}
	spChunk.SetArg(int64(len(chunkNodes)))
	chunkMark := eng.counters()
	recordWork(spChunk, blockMark, chunkMark)
	spChunk.End()

	// Step 2: chunks → concepts, over a complete graph. Chunk nodes carry
	// their models and holdout halves forward; reset ids and dendrogram
	// links so they become fresh leaves.
	step2 := make([]*node, len(chunkNodes))
	for i, c := range chunkNodes {
		step2[i] = &node{
			id:        i,
			all:       c.all,
			train:     c.train,
			test:      c.test,
			model:     c.model,
			err:       c.err,
			testWrong: c.testWrong,
			errStar:   c.err,
			members:   []int{i},
		}
	}
	spConcept := o.Span.Child(spanConceptMerge)
	eng.nextID = len(step2)
	eng.prepareSamples(step2)
	roots2 := agglomerate(eng, step2, true)
	conceptNodes := cut(roots2, o.CutSlack)
	orderByFirstMember(conceptNodes)
	spConcept.SetArg(int64(len(conceptNodes)))
	finalMark := eng.counters()
	recordWork(spConcept, chunkMark, finalMark)
	spConcept.End()

	cl := &Clustering{Occurrences: occs, Stats: eng.stats}
	cl.Stats.Blocks = len(blocks)
	cl.Stats.Chunks = len(chunkNodes)
	cl.Stats.ModelsTrained = int(finalMark.trained)
	cl.Stats.EdgesEvaluated = int(finalMark.edges)
	cl.Stats.EdgesPruned = int(finalMark.pruned)
	cl.Stats.ModelsReused = int(finalMark.reused)
	cl.Stats.RecordsCopied = int(finalMark.copied)
	if o.KeepDendrogram {
		cl.Dendrogram = exportDendrogram(roots2, conceptNodes)
	}
	for ci, cn := range conceptNodes {
		concept := Concept{Model: cn.model, Err: cn.err, Size: cn.size()}
		for _, chunkID := range cn.members {
			occs[chunkID].Concept = ci
			concept.Occurrences = append(concept.Occurrences, chunkID)
		}
		cl.Concepts = append(cl.Concepts, concept)
	}
	return cl, nil
}

// recordWork records the work-counter deltas between two marks as instant
// children of a phase span, so the phases of one build sum to its Stats.
// All counters are functions of the merge sequence alone, so the recorded
// counts are identical across worker counts.
func recordWork(sp obs.FlightSpan, since, now workCounters) {
	sp.Instant(spanModelsTrained, now.trained-since.trained)
	sp.Instant(spanEdgesEvaluated, now.edges-since.edges)
	sp.Instant(spanEdgesPruned, now.pruned-since.pruned)
	sp.Instant(spanModelsReused, now.reused-since.reused)
	sp.Instant(spanRecordsCopied, now.copied-since.copied)
	sp.Instant(spanMergers, now.mergers-since.mergers)
}

// memberRange returns the smallest and largest input-node id in the
// cluster; step-1 clusters are contiguous so this is the block range.
func memberRange(n *node) (first, last int) {
	first, last = n.members[0], n.members[0]
	for _, m := range n.members[1:] {
		if m < first {
			first = m
		}
		if m > last {
			last = m
		}
	}
	return first, last
}

// orderByFirstMember sorts clusters by their earliest input node, i.e. by
// stream position.
func orderByFirstMember(nodes []*node) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0; j-- {
			fi, _ := memberRange(nodes[j])
			fj, _ := memberRange(nodes[j-1])
			if fi < fj {
				nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
			} else {
				break
			}
		}
	}
}

// cut performs the final top-down dendrogram cut (§II-C.2): starting from
// each root, a node w is split into its children while Err*_w < Err_w,
// because a strictly better partition of D_w exists below it. With slack
// > 0, the improvement must exceed slack standard errors of the binomial
// holdout estimate, so estimation noise on small test halves does not
// fragment genuine concepts.
func cut(roots []*node, slack float64) []*node {
	var out []*node
	stack := append([]*node{}, roots...)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w.left != nil && w.errStar < w.err-slack*w.errStdErr() {
			stack = append(stack, w.left, w.right)
			continue
		}
		out = append(out, w)
	}
	return out
}
