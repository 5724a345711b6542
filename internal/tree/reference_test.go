package tree

// This file keeps the pre-sort-once grower as a test-only reference: it
// sorts each numeric column with sort.SliceStable and partitions into fresh
// per-node slices. TestGrowerMatchesReference and FuzzGrowerVsReference
// require the production grower to build the same tree, node for node and
// bit for bit. The only change from the original is the NaN-midpoint guard
// in numericSplit, without which -Inf endpoints recurse forever.

import (
	"math"
	"sort"

	"highorder/internal/data"
)

// refTrain grows (and, below Confidence 1, prunes) a tree from d with the
// reference grower.
func refTrain(d *data.Dataset, opts Options) *Node {
	opts = opts.withDefaults()
	g := &refGrower{schema: d.Schema, opts: opts, records: d.Records}
	root := g.grow(g.root(), 0)
	if opts.Confidence < 1 {
		prune(root, opts.Confidence)
	}
	return root
}

// refGrower holds the state shared across the recursive tree construction.
//
// Numeric attributes are sorted once at the root; partitions propagate the
// sorted index lists to children with stable linear scans, so threshold
// search at every node is a single pass instead of a fresh sort. This is
// what keeps training usable on deep trees over many numeric attributes
// (the intrusion stream has 34).
type refGrower struct {
	schema  *data.Schema
	opts    Options
	records []data.Record
	// childBuf maps a record index to the branch it takes in the split
	// currently being executed; reused across partitions (safe because a
	// node is fully partitioned before its children recurse).
	childBuf []int32
	// xlog2x[i] = i·log₂(i); precomputed so the threshold scan updates
	// entropies in O(1) per record instead of looping over classes with
	// live log calls (the dominant cost on numeric-heavy schemas).
	xlog2x []float64
	// cols[a][i] is record i's value of attribute a in columnar layout and
	// classes[i] its class, avoiding the record-struct indirection in the
	// hot threshold scan.
	cols    [][]float64
	classes []int32
	// counts is the class-count scratch of the most recent makeNode call;
	// bestSplit reads it for the same node immediately after (grow calls
	// them back to back, before any child recursion).
	counts []int
	// nomBuf is nominalSplit's per-call scratch for branch class counts and
	// branch sizes, sized card·k+card for the widest nominal attribute.
	nomBuf []int
}

func (g *refGrower) xl2(n int) float64 { return g.xlog2x[n] }

// refNodeData is the per-node view of the training set.
type refNodeData struct {
	// idx lists the record indices in this node, in stream order.
	idx []int32
	// sorted[a] lists the same indices ordered by numeric attribute a's
	// value; nil entries correspond to nominal attributes.
	sorted [][]int32
}

// root prepares the root refNodeData for records.
func (g *refGrower) root() *refNodeData {
	n := len(g.records)
	g.childBuf = make([]int32, n)
	g.counts = make([]int, g.schema.NumClasses())
	maxCard := 0
	hasNumeric := false
	for _, attr := range g.schema.Attributes {
		if attr.Kind == data.Numeric {
			hasNumeric = true
		} else if c := attr.Cardinality(); c > maxCard {
			maxCard = c
		}
	}
	if maxCard > 0 {
		g.nomBuf = make([]int, maxCard*g.schema.NumClasses()+maxCard)
	}
	if hasNumeric {
		// The x·log₂x table only feeds the numeric threshold scan; an
		// all-nominal schema skips the n Log2 calls entirely.
		g.xlog2x = make([]float64, n+1)
		for i := 2; i <= n; i++ {
			g.xlog2x[i] = float64(i) * math.Log2(float64(i))
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	g.classes = make([]int32, n)
	for i, r := range g.records {
		g.classes[i] = int32(r.Class)
	}
	g.cols = make([][]float64, len(g.schema.Attributes))
	nd := &refNodeData{idx: idx, sorted: make([][]int32, len(g.schema.Attributes))}
	for a, attr := range g.schema.Attributes {
		vals := make([]float64, n)
		for i, r := range g.records {
			vals[i] = r.Values[a]
		}
		g.cols[a] = vals
		if attr.Kind != data.Numeric {
			continue
		}
		s := make([]int32, n)
		copy(s, idx)
		sort.SliceStable(s, func(i, j int) bool { return vals[s[i]] < vals[s[j]] })
		nd.sorted[a] = s
	}
	return nd
}

// grow builds the (unpruned) subtree for nd.
func (g *refGrower) grow(nd *refNodeData, depth int) *Node {
	n := g.makeNode(nd.idx)
	if n.Errors == 0 || len(nd.idx) < 2*g.opts.MinLeaf {
		return n
	}
	if g.opts.MaxDepth > 0 && depth >= g.opts.MaxDepth {
		return n
	}
	best := g.bestSplit(nd, n)
	if best == nil {
		return n
	}
	n.Attr = best.attr
	n.Threshold = best.threshold
	children := g.partition(nd, best)
	n.Children = make([]*Node, len(children))
	for i, child := range children {
		if child == nil || len(child.idx) == 0 {
			// Empty branch: predict the parent's majority. Represented as
			// a nil child; Predict falls back to the parent node.
			continue
		}
		n.Children[i] = g.grow(child, depth+1)
	}
	return n
}

// makeNode builds a leaf node summarizing the records in idx.
func (g *refGrower) makeNode(idx []int32) *Node {
	k := g.schema.NumClasses()
	counts := g.counts
	for c := range counts {
		counts[c] = 0
	}
	for _, i := range idx {
		counts[g.classes[i]]++
	}
	best := 0
	for c := 1; c < k; c++ {
		if counts[c] > counts[best] {
			best = c
		}
	}
	dist := make([]float64, k)
	for c := range dist {
		dist[c] = float64(counts[c]) / float64(len(idx))
	}
	return &Node{
		Class:  best,
		Dist:   dist,
		N:      len(idx),
		Errors: len(idx) - counts[best],
	}
}

// refCandidate describes a potential split.
type refCandidate struct {
	attr      int
	threshold float64 // numeric splits only
	gainRatio float64
	gain      float64
}

// partition divides nd among the refCandidate's branches, propagating the
// per-attribute sorted orders with stable scans.
func (g *refGrower) partition(nd *refNodeData, c *refCandidate) []*refNodeData {
	attr := g.schema.Attributes[c.attr]
	branches := 2
	if attr.Kind == data.Nominal {
		branches = attr.Cardinality()
	}
	sizes := make([]int, branches)
	for _, i := range nd.idx {
		b := g.branchOf(i, c, attr)
		g.childBuf[i] = int32(b)
		sizes[b]++
	}
	children := make([]*refNodeData, branches)
	// All branches' index lists carve slices out of one backing array; the
	// append fills below stay within each child's carved capacity.
	backing := make([]int32, len(nd.idx))
	off := 0
	for b := 0; b < branches; b++ {
		if sizes[b] == 0 {
			continue
		}
		children[b] = &refNodeData{
			idx:    backing[off : off : off+sizes[b]],
			sorted: make([][]int32, len(nd.sorted)),
		}
		off += sizes[b]
	}
	for _, i := range nd.idx {
		child := children[g.childBuf[i]]
		child.idx = append(child.idx, i)
	}
	for a, s := range nd.sorted {
		if s == nil {
			continue
		}
		sb := make([]int32, len(s))
		off = 0
		for b := 0; b < branches; b++ {
			if children[b] != nil {
				children[b].sorted[a] = sb[off : off : off+sizes[b]]
				off += sizes[b]
			}
		}
		for _, i := range s {
			child := children[g.childBuf[i]]
			child.sorted[a] = append(child.sorted[a], i)
		}
	}
	return children
}

func (g *refGrower) branchOf(i int32, c *refCandidate, attr data.Attribute) int {
	v := g.cols[c.attr][i]
	if attr.Kind == data.Numeric {
		if v <= c.threshold {
			return 0
		}
		return 1
	}
	return int(v)
}

// bestSplit returns the highest-gain-ratio admissible split, or nil when no
// attribute yields positive information gain. Following C4.5, only splits
// whose gain is at least the average gain of all positive-gain candidates
// compete on gain ratio, which guards against attributes whose ratio is
// inflated by a tiny split entropy.
func (g *refGrower) bestSplit(nd *refNodeData, summary *Node) *refCandidate {
	// g.counts still holds this node's class counts from the makeNode call
	// in grow immediately before.
	baseEntropy := data.EntropyOfCounts(g.counts, summary.N)
	if baseEntropy <= 0 {
		// Entropy is non-negative; zero means the node is pure.
		return nil
	}
	var cands []refCandidate
	for a, attr := range g.schema.Attributes {
		var c *refCandidate
		if attr.Kind == data.Numeric {
			c = g.numericSplit(nd.sorted[a], a, baseEntropy)
		} else {
			c = g.nominalSplit(nd.idx, a, baseEntropy)
		}
		if c != nil && c.gain > 1e-12 {
			cands = append(cands, *c)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	avgGain := 0.0
	for _, c := range cands {
		avgGain += c.gain
	}
	avgGain /= float64(len(cands))
	var best *refCandidate
	for i := range cands {
		c := &cands[i]
		if c.gain+1e-12 < avgGain {
			continue
		}
		if best == nil || c.gainRatio > best.gainRatio {
			best = c
		}
	}
	return best
}

// nominalSplit evaluates the multiway split on nominal attribute a.
func (g *refGrower) nominalSplit(idx []int32, a int, baseEntropy float64) *refCandidate {
	attr := g.schema.Attributes[a]
	k := g.schema.NumClasses()
	card := attr.Cardinality()
	// Flat scratch: counts[v*k+c] then sizes[v], zeroed per call.
	counts := g.nomBuf[:card*k]
	sizes := g.nomBuf[card*k : card*k+card]
	for i := range counts {
		counts[i] = 0
	}
	for i := range sizes {
		sizes[i] = 0
	}
	vals := g.cols[a]
	for _, i := range idx {
		v := int(vals[i])
		counts[v*k+int(g.classes[i])]++
		sizes[v]++
	}
	// A split must send at least MinLeaf records down at least two branches.
	branches := 0
	for _, s := range sizes {
		if s >= g.opts.MinLeaf {
			branches++
		}
	}
	if branches < 2 {
		return nil
	}
	total := len(idx)
	cond := 0.0   // conditional entropy after the split
	splitH := 0.0 // split information (entropy of branch sizes)
	for v := 0; v < card; v++ {
		if sizes[v] == 0 {
			continue
		}
		p := float64(sizes[v]) / float64(total)
		cond += p * data.EntropyOfCounts(counts[v*k:(v+1)*k], sizes[v])
		splitH -= p * math.Log2(p)
	}
	gain := baseEntropy - cond
	if splitH <= 0 {
		return nil
	}
	return &refCandidate{attr: a, gain: gain, gainRatio: gain / splitH}
}

// numericSplit finds the best threshold for numeric attribute a by a
// single pass over the node's presorted index list, evaluating midpoints
// between consecutive distinct values.
func (g *refGrower) numericSplit(sorted []int32, a int, baseEntropy float64) *refCandidate {
	k := g.schema.NumClasses()
	total := len(sorted)
	left := make([]int, k)
	right := make([]int, k)
	// Incremental entropy bookkeeping: with SL = Σ_c left_c·log₂(left_c)
	// and SR likewise, the weighted conditional entropy is
	//   cond = (nL·log₂ nL − SL + nR·log₂ nR − SR) / total.
	var sl, sr float64
	for _, i := range sorted {
		right[g.classes[i]]++
	}
	for _, c := range right {
		sr += g.xl2(c)
	}
	ftotal := float64(total)
	vals := g.cols[a]
	xl := g.xlog2x
	var best *refCandidate
	nLeft := 0
	for pos := 0; pos < total-1; pos++ {
		i := sorted[pos]
		cls := g.classes[i]
		sl += xl[left[cls]+1] - xl[left[cls]]
		sr += xl[right[cls]-1] - xl[right[cls]]
		left[cls]++
		right[cls]--
		nLeft++
		v, vNext := vals[i], vals[sorted[pos+1]]
		if v == vNext { //homlint:allow floatcmp -- thresholds may only fall between distinct sorted values; exact duplicate detection is the point
			continue
		}
		nRight := total - nLeft
		if nLeft < g.opts.MinLeaf || nRight < g.opts.MinLeaf {
			continue
		}
		cond := (g.xl2(nLeft) - sl + g.xl2(nRight) - sr) / ftotal
		gain := baseEntropy - cond
		if gain <= 1e-12 {
			continue
		}
		splitH := (g.xl2(total) - g.xl2(nLeft) - g.xl2(nRight)) / ftotal
		if splitH <= 0 {
			continue
		}
		ratio := gain / splitH
		if best == nil || ratio > best.gainRatio {
			thr := v + (vNext-v)/2
			// Guard against midpoints that round back onto the upper value,
			// and against -Inf endpoints, whose midpoint is NaN.
			if thr >= vNext || math.IsNaN(thr) {
				thr = v
			}
			best = &refCandidate{attr: a, threshold: thr, gain: gain, gainRatio: ratio}
		}
	}
	return best
}
