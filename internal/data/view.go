package data

// View is a read-only, zero-copy concatenation of record segments that
// share backing storage with the Datasets they were built from. The
// concept-clustering engine builds a dendrogram by repeatedly merging
// clusters; representing each cluster's records as a View makes a merger
// an O(segments) splice of slice headers instead of an O(records) copy,
// so a dendrogram of depth d no longer copies every record d times.
//
// A View never mutates its segments, and callers must not mutate records
// reached through it: the same backing arrays are visible through the
// source Datasets and through every derived View.
type View struct {
	schema *Schema
	segs   [][]Record
	n      int
}

// ViewOf wraps d as a single-segment view. The records are shared, not
// copied.
func ViewOf(d *Dataset) *View {
	v := &View{schema: d.Schema, n: len(d.Records)}
	if len(d.Records) > 0 {
		v.segs = [][]Record{d.Records}
	}
	return v
}

// Len returns the number of records visible through the view.
func (v *View) Len() int { return v.n }

// Schema returns the shared schema.
func (v *View) Schema() *Schema { return v.schema }

// Segments exposes the underlying record segments for allocation-free
// iteration. The returned slices are shared with the view's sources and
// must be treated as read-only.
func (v *View) Segments() [][]Record { return v.segs }

// At returns record i in concatenation order. It walks the segment list,
// so it is O(segments); hot loops should range over Segments instead.
func (v *View) At(i int) Record {
	for _, seg := range v.segs {
		if i < len(seg) {
			return seg[i]
		}
		i -= len(seg)
	}
	panic("data: View.At index out of range")
}

// Concat returns a view over v's records followed by o's. Neither input
// is modified and no records are copied; adjacent segments that are
// contiguous in the same backing array are coalesced, so concatenating
// stream-order slices (as step-1 chunk merging does) keeps the segment
// count at one instead of growing per merge.
func (v *View) Concat(o *View) *View {
	segs := make([][]Record, 0, len(v.segs)+len(o.segs))
	segs = append(segs, v.segs...) //homlint:allow hotpathalloc -- appends into exact-capacity preallocation
	for _, seg := range o.segs {
		if n := len(segs); n > 0 && contiguous(segs[n-1], seg) {
			segs[n-1] = segs[n-1][:len(segs[n-1])+len(seg)]
			continue
		}
		segs = append(segs, seg) //homlint:allow hotpathalloc -- appends into exact-capacity preallocation
	}
	return &View{schema: v.schema, segs: segs, n: v.n + o.n}
}

// contiguous reports whether b starts exactly where a ends within the
// same backing array. The address comparison is meaningful only when
// a's allocation extends past its length, which the cap check ensures.
func contiguous(a, b []Record) bool {
	if len(a) == 0 || len(b) == 0 || cap(a) <= len(a) {
		return false
	}
	ext := a[:len(a)+1]
	return &ext[len(a)] == &b[0]
}

// AppendTo appends every record of the view to dst and returns the
// extended slice — the one place a View's records are copied.
func (v *View) AppendTo(dst []Record) []Record {
	for _, seg := range v.segs {
		dst = append(dst, seg...) //homlint:allow hotpathalloc -- callers preallocate dst to the view length
	}
	return dst
}

// Materialize flattens the view into a freshly allocated Dataset. Record
// structs are copied; their Values slices remain shared. The clustering
// engine calls it only for learners without orders: an ordered learner
// (classifier.OrderedLearner) reads a view's segments in place.
func (v *View) Materialize() *Dataset {
	return &Dataset{Schema: v.schema, Records: v.AppendTo(make([]Record, 0, v.n))}
}
