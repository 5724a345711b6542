// Package tree implements a C4.5-style decision tree: gain-ratio split
// selection, multiway splits on nominal attributes, binary threshold splits
// on numeric attributes, and pessimistic-error (confidence-based) subtree
// replacement pruning. It is the common base classifier used throughout the
// experiments, standing in for Quinlan's C4.5 release 8 which the paper
// uses (§IV-B).
package tree

import (
	"fmt"
	"strings"

	"highorder/internal/classifier"
	"highorder/internal/data"
)

// Options configure training.
type Options struct {
	// MinLeaf is the minimum number of records a split branch must receive
	// for the split to be considered (C4.5's MINOBJS). Values below 1 are
	// treated as the default of 2.
	MinLeaf int
	// Confidence is the pruning confidence factor (C4.5's CF, default
	// 0.25). Smaller values prune more aggressively. A value <= 0 selects
	// the default; Confidence >= 1 disables pruning.
	Confidence float64
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
}

func (o Options) withDefaults() Options {
	if o.MinLeaf < 1 {
		o.MinLeaf = 2
	}
	if o.Confidence <= 0 {
		o.Confidence = 0.25
	}
	return o
}

// Learner trains decision trees.
type Learner struct {
	Opts Options
}

// NewLearner returns a Learner with default options.
func NewLearner() *Learner { return &Learner{} }

// Name returns "c4.5".
func (l *Learner) Name() string { return "c4.5" }

// Train grows and prunes a tree from d. It fails on an empty dataset and
// on any NaN attribute value, naming the first such record and attribute.
func (l *Learner) Train(d *data.Dataset) (classifier.Classifier, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("tree: cannot train on empty dataset") //homlint:allow hotpathalloc -- error construction on the failure path only
	}
	opts := l.Opts.withDefaults()
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	g, err := newGrower(d, opts, s)
	if err != nil {
		return nil, err
	}
	root := g.grow(0, d.Len(), 0)
	if opts.Confidence < 1 {
		prune(root, opts.Confidence)
	}
	return &Tree{Schema: d.Schema, Root: root, opts: opts}, nil
}

// Tree is a trained decision tree.
type Tree struct {
	Schema *data.Schema
	Root   *Node
	opts   Options
}

// Node is a tree node. Leaves have Children == nil.
type Node struct {
	// Class is the majority class of the training records reaching this
	// node; leaves predict it and internal nodes fall back to it when a
	// record's attribute value has no branch.
	Class int
	// Dist is the training class distribution at this node (probabilities).
	Dist []float64
	// N is the number of training records that reached this node.
	N int
	// Errors is the number of those records misclassified by Class.
	Errors int

	// Attr is the split attribute index for internal nodes.
	Attr int
	// Threshold is the numeric split point: records with value <= Threshold
	// go to Children[0], the rest to Children[1]. Unused for nominal
	// splits, where Children[v] corresponds to nominal value v.
	Threshold float64
	// Children are the subtrees; nil for a leaf.
	Children []*Node
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Predict returns the predicted class for r.
func (t *Tree) Predict(r data.Record) int {
	return t.leafFor(r).Class
}

// PredictProba returns the class distribution of the leaf r falls into.
func (t *Tree) PredictProba(r data.Record) []float64 {
	return t.leafFor(r).Dist
}

// leafFor walks r to the deepest reachable node.
//
// Nominal fallback rule (shared verbatim by the compiled walker in
// internal/compiled): a nominal value selects branch int(v) only when
// v >= 0 && v < float64(len(Children)) — the range check happens in float
// space, before the int conversion. Any other value (negative, fractional
// beyond the branch count, NaN, or astronomically large) selects no
// branch, and the walk stops at the current node, answering its majority
// class and training distribution. Checking after converting (the old
// `int(v)` guard) made the answer for NaN and out-of-range-of-int values
// implementation-defined, because Go leaves float-to-int conversion
// unspecified when the value does not fit.
//
//homlint:hotpath -- per-record tree walk under the serve classify loop
func (t *Tree) leafFor(r data.Record) *Node {
	n := t.Root
	for !n.IsLeaf() {
		attr := t.Schema.Attributes[n.Attr]
		var next *Node
		if attr.Kind == data.Numeric {
			if r.Values[n.Attr] <= n.Threshold {
				next = n.Children[0]
			} else {
				next = n.Children[1]
			}
		} else {
			v := r.Values[n.Attr]
			if v >= 0 && v < float64(len(n.Children)) {
				next = n.Children[int(v)]
			}
		}
		if next == nil {
			break // unseen branch: answer with this node's majority
		}
		n = next
	}
	return n
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int { return t.Root.size() }

// Leaves returns the number of leaves in the tree.
func (t *Tree) Leaves() int { return t.Root.leaves() }

// Depth returns the length of the longest root-to-leaf path (a lone leaf
// has depth 0).
func (t *Tree) Depth() int { return t.Root.depth() }

func (n *Node) size() int {
	s := 1
	for _, c := range n.Children {
		if c != nil {
			s += c.size()
		}
	}
	return s
}

func (n *Node) leaves() int {
	if n.IsLeaf() {
		return 1
	}
	s := 0
	for _, c := range n.Children {
		if c != nil {
			s += c.leaves()
		}
	}
	return s
}

func (n *Node) depth() int {
	if n.IsLeaf() {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if c == nil {
			continue
		}
		if d := c.depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// String renders the tree in an indented, human-readable form for
// debugging and the CLI tools.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, t.Root, 0)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s→ %s (n=%d)\n", indent, t.Schema.Classes[n.Class], n.N)
		return
	}
	attr := t.Schema.Attributes[n.Attr]
	if attr.Kind == data.Numeric {
		fmt.Fprintf(b, "%s%s <= %.6g:\n", indent, attr.Name, n.Threshold)
		t.render(b, n.Children[0], depth+1)
		fmt.Fprintf(b, "%s%s > %.6g:\n", indent, attr.Name, n.Threshold)
		t.render(b, n.Children[1], depth+1)
		return
	}
	for v, c := range n.Children {
		fmt.Fprintf(b, "%s%s = %s:\n", indent, attr.Name, attr.Values[v])
		if c == nil {
			fmt.Fprintf(b, "%s  → %s (empty)\n", indent, t.Schema.Classes[n.Class])
			continue
		}
		t.render(b, c, depth+1)
	}
}
