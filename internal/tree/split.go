package tree

import (
	"math"
	"sync"

	"highorder/internal/data"
)

// grower holds the state shared across the recursive tree construction.
//
// Numeric attributes are sorted once at the root, or merged from two
// presorted orders (TrainConcat); every split then partitions the sorted
// index lists stably and in place, so each child's lists are contiguous
// sub-ranges of its parent's and threshold search at every node is a
// single pass instead of a fresh sort. A node is therefore just a range
// [lo, hi) that is valid in every list at once. This is what keeps
// training usable on deep trees over many numeric attributes (the
// intrusion stream has 34), and it leaves the Node, Dist and Children of
// the grown tree as the only per-node allocations.
type grower struct {
	schema *data.Schema
	opts   Options
	*scratch
}

// scratch holds every buffer the grower uses, sized for the largest
// training set it has seen. Train borrows one from scratchPool, so the
// clustering step's thousands of trainings per build reuse the same
// memory instead of allocating it per tree and per node.
type scratch struct {
	// cols[a][i] is record i's value of attribute a in columnar layout,
	// avoiding the record-struct indirection in the hot threshold scan;
	// colArena backs them.
	colArena []float64
	cols     [][]float64
	// sorted[a] lists the record indices ordered by numeric attribute a's
	// value, ties broken by index; nil entries are nominal attributes.
	sorted [][]int32
	// lists are the index lists every split partitions: the sorted lists,
	// or the idx list alone for all-nominal schemas. listArena backs them.
	// Node statistics are order-free, so lists[0] also serves as the
	// node's member list.
	lists     [][]int32
	listArena []int32
	classes   []int32
	// childBuf maps a record index to the branch it takes in the split
	// currently being executed; reused across partitions (safe because a
	// node is fully partitioned before its children recurse).
	childBuf []int32
	// tmp is the stable partition's spill buffer.
	tmp []int32
	// pairs is the root sort's (value, index) buffer, and mergeVals the
	// values mergeLists writes beside the merged indices.
	pairs     []pair
	mergeVals []float64
	// counts is the class-count scratch of the most recent makeNode call;
	// bestSplit reads it for the same node immediately after (grow calls
	// them back to back, before any child recursion).
	counts      []int
	left, right []int
	// nomBuf is nominalSplit's per-call scratch for branch class counts and
	// branch sizes, sized card·k+card for the widest nominal attribute.
	nomBuf []int
	// cursor holds the k-way partition's per-branch write positions.
	cursor []int
	cands  []candidate
	// bounds is a stack of child range boundaries: each internal node
	// pushes branches+1 offsets while its children recurse.
	bounds []int
	top    int
	// xlog2x[i] = i·log₂(i); precomputed so the threshold scan updates
	// entropies in O(1) per record instead of looping over classes with
	// live log calls (the dominant cost on numeric-heavy schemas). It is a
	// pure function of i, so it only ever grows.
	xlog2x []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pair is one entry of a column sort: a value and its record index.
type pair struct {
	v float64
	i int32
}

// cmpPair orders pairs by value, then by record index. On NaN-free data
// this is a strict total order, so the sort result is unique and equals a
// stable sort of the indices by value; -0 and +0 compare equal and tie on
// index.
func cmpPair(a, b pair) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return int(a.i) - int(b.i)
}

// fit returns b resliced to length n, reallocating only when it is too
// small.
func fit[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// newGrower lays the n records of segs, in order, out in s's buffers:
// columns, classes, and one index list per numeric attribute, which
// sortLists or mergeLists then fills. It rejects NaN values, which have no
// place in a threshold order.
func newGrower(schema *data.Schema, segs [][]data.Record, n int, opts Options, s *scratch) (*grower, error) {
	na := len(schema.Attributes)
	k := schema.NumClasses()
	g := &grower{schema: schema, opts: opts, scratch: s}

	numeric, maxCard := 0, 0
	for _, attr := range schema.Attributes {
		if attr.Kind == data.Numeric {
			numeric++
		} else if c := attr.Cardinality(); c > maxCard {
			maxCard = c
		}
	}

	s.colArena = fit(s.colArena, na*n)
	s.cols = fit(s.cols, na)
	s.sorted = fit(s.sorted, na)
	s.lists = fit(s.lists, max(numeric, 1))
	s.listArena = fit(s.listArena, len(s.lists)*n)
	s.classes = fit(s.classes, n)
	s.childBuf = fit(s.childBuf, n)
	s.tmp = fit(s.tmp, n)
	s.counts = fit(s.counts, k)
	s.left = fit(s.left, k)
	s.right = fit(s.right, k)
	s.nomBuf = fit(s.nomBuf, maxCard*k+maxCard)
	s.cursor = fit(s.cursor, maxCard)
	s.cands = fit(s.cands, na)
	s.top = 0

	classes := s.classes
	for _, seg := range segs {
		for i, r := range seg {
			classes[i] = int32(r.Class)
		}
		classes = classes[len(seg):]
	}
	list := 0
	for a, attr := range schema.Attributes {
		vals := s.colArena[a*n : (a+1)*n]
		col := vals
		for _, seg := range segs {
			for i, r := range seg {
				v := r.Values[a]
				if math.IsNaN(v) {
					return nil, nanError(schema, n-len(col)+i, a)
				}
				col[i] = v
			}
			col = col[len(seg):]
		}
		s.cols[a] = vals
		s.sorted[a] = nil
		if attr.Kind != data.Numeric {
			continue
		}
		sl := s.listArena[list*n : (list+1)*n]
		s.sorted[a] = sl
		s.lists[list] = sl
		list++
	}
	if numeric == 0 {
		idx := s.listArena[:n]
		for i := range idx {
			idx[i] = int32(i)
		}
		s.lists[0] = idx
	} else if len(s.xlog2x) < n+1 {
		// The x·log₂x table only feeds the numeric threshold scan; an
		// all-nominal schema skips it entirely.
		t := make([]float64, max(n+1, 2*len(s.xlog2x)))
		from := copy(t, s.xlog2x)
		for i := max(from, 2); i < len(t); i++ {
			t[i] = float64(i) * math.Log2(float64(i))
		}
		s.xlog2x = t
	}
	return g, nil
}

// sortLists fills every numeric attribute's index list with the record
// indices in threshold order: one (value, index) sort per column.
func (g *grower) sortLists() {
	g.pairs = fit(g.pairs, len(g.classes))
	for a, sl := range g.sorted {
		if sl == nil {
			continue
		}
		for i, v := range g.cols[a] {
			g.pairs[i] = pair{v: v, i: int32(i)}
		}
		sortPairs(g.pairs)
		for j, p := range g.pairs {
			sl[j] = p.i
		}
	}
}

// mergeLists fills every numeric attribute's index list by merging x's
// and y's orders, the grower's records being x's followed by y's. The
// result is the list sortLists would build, in linear time.
func (g *grower) mergeLists(x, y *Order) {
	g.mergeVals = fit(g.mergeVals, len(g.classes))
	k := 0
	for _, sl := range g.sorted {
		if sl == nil {
			continue
		}
		xp, xv := x.column(k)
		yp, yv := y.column(k)
		mergeColumn(sl, g.mergeVals, xp, xv, yp, yv, int32(x.n))
		k++
	}
}

// grow builds the (unpruned) subtree for the records in [lo, hi).
func (g *grower) grow(lo, hi, depth int) *Node {
	n := g.makeNode(g.lists[0][lo:hi])
	if n.Errors == 0 || hi-lo < 2*g.opts.MinLeaf {
		return n
	}
	if g.opts.MaxDepth > 0 && depth >= g.opts.MaxDepth {
		return n
	}
	best, ok := g.bestSplit(lo, hi, n)
	if !ok {
		return n
	}
	n.Attr = best.attr
	n.Threshold = best.threshold
	bounds := g.partition(lo, hi, &best)
	n.Children = make([]*Node, len(bounds)-1)
	for b := range n.Children {
		if bounds[b] == bounds[b+1] {
			// Empty branch: predict the parent's majority. Represented as
			// a nil child; Predict falls back to the parent node.
			continue
		}
		n.Children[b] = g.grow(bounds[b], bounds[b+1], depth+1)
	}
	g.top -= len(bounds)
	return n
}

// makeNode builds a leaf node summarizing the records in idx.
func (g *grower) makeNode(idx []int32) *Node {
	k := g.schema.NumClasses()
	counts := g.counts
	clear(counts)
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

// candidate describes a potential split.
type candidate struct {
	attr      int
	threshold float64 // numeric splits only
	// nLeft is the number of records at or below threshold (numeric
	// splits only): exactly the first nLeft entries of the attribute's
	// sorted list.
	nLeft     int
	gainRatio float64
	gain      float64
}

// pushBounds reserves m entries on the bounds stack. A reallocation leaves
// slices already handed out valid: each is read only by the node that
// pushed it.
func (g *grower) pushBounds(m int) []int {
	if g.top+m > len(g.bounds) {
		nb := make([]int, 2*(g.top+m))
		copy(nb, g.bounds[:g.top])
		g.bounds = nb
	}
	b := g.bounds[g.top : g.top+m]
	g.top += m
	return b
}

// partition divides [lo, hi) among the candidate's branches, reordering
// every index list stably in place, and returns the branch boundaries:
// branch b holds [bounds[b], bounds[b+1]). The caller pops them.
func (g *grower) partition(lo, hi int, c *candidate) []int {
	attr := g.schema.Attributes[c.attr]
	if attr.Kind == data.Numeric {
		// The split attribute's own list is already partitioned: its first
		// nLeft entries are exactly the records at or below the threshold.
		own := g.sorted[c.attr][lo:hi]
		for _, i := range own[:c.nLeft] {
			g.childBuf[i] = 0
		}
		for _, i := range own[c.nLeft:] {
			g.childBuf[i] = 1
		}
		for a, s := range g.sorted {
			if s != nil && a != c.attr {
				g.partition2(s[lo:hi])
			}
		}
		bounds := g.pushBounds(3)
		bounds[0], bounds[1], bounds[2] = lo, lo+c.nLeft, hi
		return bounds
	}

	branches := attr.Cardinality()
	bounds := g.pushBounds(branches + 1)
	clear(bounds)
	vals := g.cols[c.attr]
	for _, i := range g.lists[0][lo:hi] {
		b := int32(vals[i])
		g.childBuf[i] = b
		bounds[b+1]++
	}
	bounds[0] = lo
	for b := 1; b <= branches; b++ {
		bounds[b] += bounds[b-1]
	}
	for _, s := range g.lists {
		g.partitionK(s[lo:hi], bounds)
	}
	return bounds
}

// partition2 stably reorders s so the records taking branch 0 precede
// those taking branch 1. Each entry is written to both destinations and
// only the matching cursor advances, which keeps the loop branch-free;
// writing s[l] is safe because l never passes the read position.
func (g *grower) partition2(s []int32) {
	tmp := g.tmp
	l, r := 0, int32(0)
	for _, i := range s {
		b := g.childBuf[i]
		s[l] = i
		tmp[r] = i
		l += int(1 - b)
		r += b
	}
	copy(s[l:], tmp[:r])
}

// partitionK stably reorders s by branch, branch b landing at
// [bounds[b], bounds[b+1]) relative to bounds[0].
func (g *grower) partitionK(s []int32, bounds []int) {
	cur := g.cursor[:len(bounds)-1]
	for b := range cur {
		cur[b] = bounds[b] - bounds[0]
	}
	tmp := g.tmp[:len(s)]
	for _, i := range s {
		b := g.childBuf[i]
		tmp[cur[b]] = i
		cur[b]++
	}
	copy(s, tmp)
}

// bestSplit returns the highest-gain-ratio admissible split of [lo, hi),
// or false when no attribute yields positive information gain. Following
// C4.5, only splits whose gain is at least the average gain of all
// positive-gain candidates compete on gain ratio, which guards against
// attributes whose ratio is inflated by a tiny split entropy.
func (g *grower) bestSplit(lo, hi int, summary *Node) (candidate, bool) {
	// g.counts still holds this node's class counts from the makeNode call
	// in grow immediately before.
	baseEntropy := data.EntropyOfCounts(g.counts, summary.N)
	if baseEntropy <= 0 {
		// Entropy is non-negative; zero means the node is pure.
		return candidate{}, false
	}
	nc := 0
	for a, attr := range g.schema.Attributes {
		var c candidate
		var ok bool
		if attr.Kind == data.Numeric {
			c, ok = g.numericSplit(g.sorted[a][lo:hi], a, baseEntropy)
		} else {
			c, ok = g.nominalSplit(g.lists[0][lo:hi], a, baseEntropy)
		}
		if ok && c.gain > 1e-12 {
			g.cands[nc] = c
			nc++
		}
	}
	cands := g.cands[:nc]
	if nc == 0 {
		return candidate{}, false
	}
	avgGain := 0.0
	for _, c := range cands {
		avgGain += c.gain
	}
	avgGain /= float64(len(cands))
	best := -1
	for i, c := range cands {
		if c.gain+1e-12 < avgGain {
			continue
		}
		if best < 0 || c.gainRatio > cands[best].gainRatio {
			best = i
		}
	}
	if best < 0 {
		return candidate{}, false
	}
	return cands[best], true
}

// nominalSplit evaluates the multiway split on nominal attribute a.
func (g *grower) nominalSplit(idx []int32, a int, baseEntropy float64) (candidate, bool) {
	attr := g.schema.Attributes[a]
	k := g.schema.NumClasses()
	card := attr.Cardinality()
	// Flat scratch: counts[v*k+c] then sizes[v], zeroed per call.
	counts := g.nomBuf[:card*k]
	sizes := g.nomBuf[card*k : card*k+card]
	clear(counts)
	clear(sizes)
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
		return candidate{}, false
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
		return candidate{}, false
	}
	return candidate{attr: a, gain: gain, gainRatio: gain / splitH}, true
}

// numericSplit finds the best threshold for numeric attribute a by a
// single pass over the node's presorted index list, evaluating midpoints
// between consecutive distinct values.
func (g *grower) numericSplit(sorted []int32, a int, baseEntropy float64) (candidate, bool) {
	total := len(sorted)
	if total < 2 {
		return candidate{}, false
	}
	classes, left, right := g.classes, g.left, g.right
	clear(left)
	clear(right)
	// Incremental entropy bookkeeping: with SL = Σ_c left_c·log₂(left_c)
	// and SR likewise, the weighted conditional entropy is
	//   cond = (nL·log₂ nL − SL + nR·log₂ nR − SR) / total.
	var sl, sr float64
	for _, i := range sorted {
		right[classes[i]]++
	}
	xl := g.xlog2x
	for _, c := range right {
		sr += xl[c]
	}
	ftotal := float64(total)
	xlTotal := xl[total]
	minLeaf := g.opts.MinLeaf
	vals := g.cols[a]
	var best candidate
	found := false
	// v is the value at pos, carried over from the previous position's
	// look-ahead.
	v := vals[sorted[0]]
	for pos := 0; pos < total-1; pos++ {
		cls := classes[sorted[pos]]
		nl, nr := left[cls], right[cls]
		sl += xl[nl+1] - xl[nl]
		sr += xl[nr-1] - xl[nr]
		left[cls], right[cls] = nl+1, nr-1
		nLeft := pos + 1
		vCur := v
		v = vals[sorted[pos+1]]
		if vCur == v { //homlint:allow floatcmp -- thresholds may only fall between distinct sorted values; exact duplicate detection is the point
			continue
		}
		nRight := total - nLeft
		if nLeft < minLeaf || nRight < minLeaf {
			continue
		}
		xlLeft, xlRight := xl[nLeft], xl[nRight]
		cond := (xlLeft - sl + xlRight - sr) / ftotal
		gain := baseEntropy - cond
		if gain <= 1e-12 {
			continue
		}
		splitH := (xlTotal - xlLeft - xlRight) / ftotal
		if splitH <= 0 {
			continue
		}
		ratio := gain / splitH
		if !found || ratio > best.gainRatio {
			thr := vCur + (v-vCur)/2
			// Guard against midpoints that round back onto the upper value,
			// and against -Inf endpoints, whose midpoint is NaN.
			if thr >= v || math.IsNaN(thr) {
				thr = vCur
			}
			best = candidate{attr: a, threshold: thr, nLeft: nLeft, gain: gain, gainRatio: ratio}
			found = true
		}
	}
	return best, found
}
