package tree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"highorder/internal/classifier"
	"highorder/internal/data"
)

// Order is a training set's numeric columns in threshold order: for each
// numeric attribute, in schema order, the record positions sorted by
// (value, position) and the values in that order. It is the sort Train
// runs before growing, kept so a later training on a concatenation can
// merge two orders in linear time instead of sorting again.
type Order struct {
	// n is the number of records the order covers and cols the number of
	// numeric attributes.
	n, cols int
	// pos[k*n:(k+1)*n] lists the record positions of the k-th numeric
	// attribute in order; vals holds their values at the same offsets.
	pos  []int32
	vals []float64
}

// orderFree recycles the buffers of consumed orders (ConcatOrder), one
// pool per size class: class c holds orders whose buffers have room for
// 2^c entries, so any of them can serve a request of up to 2^c.
var orderFree [bits.UintSize]sync.Pool

// newOrderBuf returns an order of n records over cols numeric columns,
// reusing a consumed order's buffers when one of the size class is free.
// Fresh buffers are sized to the class, so they can serve it again.
func newOrderBuf(n, cols int) *Order {
	m := n * cols
	if m == 0 {
		return &Order{n: n, cols: cols}
	}
	class := bits.Len(uint(m - 1))
	if o, ok := orderFree[class].Get().(*Order); ok {
		o.n, o.cols, o.pos, o.vals = n, cols, o.pos[:m], o.vals[:m]
		return o
	}
	return &Order{n: n, cols: cols, pos: make([]int32, m, 1<<class), vals: make([]float64, m, 1<<class)}
}

// release files o's buffers for reuse by later orders; o must not be
// read again.
func (o *Order) release() {
	if c := cap(o.pos); c > 0 {
		orderFree[bits.Len(uint(c))-1].Put(o)
	}
}

// Len returns the number of records the order covers.
func (o *Order) Len() int { return o.n }

// column returns the k-th numeric attribute's sorted positions and values.
func (o *Order) column(k int) ([]int32, []float64) {
	return o.pos[k*o.n : (k+1)*o.n], o.vals[k*o.n : (k+1)*o.n]
}

// NewOrder sorts d's numeric columns into an Order. It fails on any NaN
// attribute value with the error Train would return for d.
func NewOrder(d *data.Dataset) (*Order, error) {
	numeric := 0
	for _, attr := range d.Schema.Attributes {
		if attr.Kind == data.Numeric {
			numeric++
		}
	}
	o := newOrderBuf(d.Len(), numeric)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.pairs = fit(s.pairs, d.Len())
	k := 0
	for a, attr := range d.Schema.Attributes {
		for i, r := range d.Records {
			v := r.Values[a]
			if math.IsNaN(v) {
				return nil, nanError(d.Schema, i, a)
			}
			s.pairs[i] = pair{v: v, i: int32(i)}
		}
		if attr.Kind != data.Numeric {
			continue
		}
		pos, vals := o.column(k)
		sortPairs(s.pairs)
		for j, p := range s.pairs {
			pos[j], vals[j] = p.i, p.v
		}
		k++
	}
	return o, nil
}

// nanError is the error training reports for record i's NaN value of
// attribute a.
func nanError(schema *data.Schema, i, a int) error {
	return fmt.Errorf("tree: record %d: attribute %q is NaN", i, schema.Attributes[a].Name) //homlint:allow hotpathalloc -- error construction on the failure path only
}

// sortPairs orders pairs by (value, index), the threshold order.
func sortPairs(pairs []pair) { slices.SortFunc(pairs, cmpPair) }

// ConcatOrder returns the order of x's records followed by y's: y's
// positions shift by x.Len(). It is a linear merge per column and equals
// NewOrder of the concatenation index for index. It consumes x and y:
// their buffers back later orders, so neither may be used again.
func ConcatOrder(x, y *Order) *Order {
	o := newOrderBuf(x.n+y.n, x.cols)
	for k := 0; k < o.cols; k++ {
		pos, vals := o.column(k)
		xp, xv := x.column(k)
		yp, yv := y.column(k)
		mergeColumn(pos, vals, xp, xv, yp, yv, int32(x.n))
	}
	x.release()
	y.release()
	return o
}

// mergeColumn merges two sorted columns into pos and vals, shifting y's
// positions by off. Every x position precedes every shifted y position,
// so taking x's entry on equal values (-0 and +0 included) reproduces
// cmpPair's tie rule exactly.
func mergeColumn(pos []int32, vals []float64, xp []int32, xv []float64, yp []int32, yv []float64, off int32) {
	i, j, k := 0, 0, 0
	for i < len(xv) && j < len(yv) {
		if xv[i] <= yv[j] {
			pos[k], vals[k] = xp[i], xv[i]
			i++
		} else {
			pos[k], vals[k] = yp[j]+off, yv[j]
			j++
		}
		k++
	}
	for ; i < len(xv); i, k = i+1, k+1 {
		pos[k], vals[k] = xp[i], xv[i]
	}
	for ; j < len(yv); j, k = j+1, k+1 {
		pos[k], vals[k] = yp[j]+off, yv[j]
	}
}

// NewOrder implements classifier.OrderedLearner.
func (l *Learner) NewOrder(d *data.Dataset) (classifier.Order, error) {
	o, err := NewOrder(d)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// ConcatOrder implements classifier.OrderedLearner; x and y must come
// from NewOrder or ConcatOrder, and are consumed.
func (l *Learner) ConcatOrder(x, y classifier.Order) classifier.Order {
	return ConcatOrder(x.(*Order), y.(*Order))
}

// TrainConcat grows and prunes the tree Train would on v's records, which
// are x's followed by y's: it reads them in place, segment by segment, and
// merges the two orders straight into the grower's index lists instead of
// sorting. It implements classifier.OrderedLearner; x and y must come from
// NewOrder or ConcatOrder over v's two parts.
func (l *Learner) TrainConcat(v *data.View, x, y classifier.Order) (classifier.Classifier, error) {
	xo, yo := x.(*Order), y.(*Order)
	if xo.n+yo.n != v.Len() {
		return nil, fmt.Errorf("tree: orders cover %d+%d records, view has %d", xo.n, yo.n, v.Len()) //homlint:allow hotpathalloc -- error construction on the failure path only
	}
	return l.train(v.Schema(), v.Segments(), v.Len(), xo, yo)
}
