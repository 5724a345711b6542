package compiled

import (
	"fmt"
	"math"

	"highorder/internal/bayes"
	"highorder/internal/classifier"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/tree"
)

// progKind selects a concept program's evaluator.
type progKind uint8

const (
	progTree progKind = iota
	progBayes
	progRules
)

// node is one flat decision-tree node. Children are reached through the
// model's childIdx table: childIdx[child : child+nchild] holds node
// indices, -1 for a branch the grower never materialized. nchild == 0
// marks a leaf. dist is the node's training class distribution in the
// float arena (length k) — kept for every node, not just leaves, because
// the nominal fallback rule answers an interior node's distribution.
type node struct {
	thr     float64
	attr    int32
	child   int32
	nchild  int32
	dist    int32
	class   int32
	numeric bool
}

// battr is one naive-bayes attribute program. Nominal attributes hold
// card*k log-frequencies at off, laid out [c*card + v]; numeric
// attributes hold three length-k blocks at off: mean, stddev, log(stddev).
type battr struct {
	attr    int32
	card    int32
	off     int32
	nominal bool
}

// cond is one flattened rule condition (mirrors tree.Condition).
type cond struct {
	val  float64
	attr int32
	op   uint8 // tree.OpEq / OpLE / OpGT
}

// ruleMeta is one flattened rule: conds[condOff:condOff+condN] must all
// hold; dist is the precomputed PredictProba answer in the arena.
type ruleMeta struct {
	condOff int32
	condN   int32
	class   int32
	dist    int32
}

// program is one concept's compiled classifier.
type program struct {
	kind progKind
	// tree
	root int32
	// bayes
	battrOff int32
	battrN   int32
	logPrio  int32 // arena offset, length k
	// rules
	ruleOff  int32
	ruleN    int32
	defClass int32
	defDist  int32 // arena offset, length k
}

// Model is the compiled form of a core.Model: every concept's classifier
// lowered into the shared flat tables, plus the ensemble parameters
// (transposed χ, per-concept error rates) the predictor twin needs.
// A Model is immutable after Compile and safe for concurrent use by any
// number of predictors.
type Model struct {
	schema *data.Schema
	k      int // classes
	n      int // concepts

	// chiT is χ transposed, row-major: chiT[j*n+i] = Chi[i][j], so the
	// prior update P_t⁻(j) = Σ_i P(i)·χ[i][j] streams one contiguous row
	// per output concept while adding in the interpreted order (i
	// ascending).
	chiT []float64
	// errs[c] is Concepts[c].Err (ψ of Eq. 8).
	errs []float64

	progs    []program
	nodes    []node
	childIdx []int32
	arena    []float64
	conds    []cond
	rules    []ruleMeta
	battrs   []battr
}

// Schema returns the model's schema.
func (m *Model) Schema() *data.Schema { return m.schema }

// NumConcepts returns the number of compiled concept programs.
func (m *Model) NumConcepts() int { return m.n }

// Compile lowers m into flat decision tables. It returns an error naming
// the concept when a concept's classifier is not a *tree.Tree,
// *bayes.Model, *tree.RuleSet, or *classifier.Majority — every type
// internal/dataio can load — or when the model is internally
// inconsistent (mis-sized χ or distributions).
func Compile(src *core.Model) (*Model, error) {
	n := len(src.Concepts)
	if n == 0 {
		return nil, fmt.Errorf("compiled: model has no concepts")
	}
	k := src.Schema.NumClasses()
	if k == 0 {
		return nil, fmt.Errorf("compiled: schema has no classes")
	}
	m := &Model{
		schema: src.Schema,
		k:      k,
		n:      n,
		chiT:   make([]float64, n*n),
		errs:   make([]float64, n),
		progs:  make([]program, 0, n),
	}
	if len(src.Chi) != n {
		return nil, fmt.Errorf("compiled: χ has %d rows, model has %d concepts", len(src.Chi), n)
	}
	for i, row := range src.Chi {
		if len(row) != n {
			return nil, fmt.Errorf("compiled: χ row %d has %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			m.chiT[j*n+i] = v
		}
	}
	for c := range src.Concepts {
		m.errs[c] = src.Concepts[c].Err
		var p program
		var err error
		switch cls := src.Concepts[c].Model.(type) {
		case *tree.Tree:
			p, err = m.compileTree(cls)
		case *bayes.Model:
			p, err = m.compileBayes(cls)
		case *tree.RuleSet:
			p, err = m.compileRules(cls)
		case *classifier.Majority:
			p, err = m.compileMajority(cls)
		default:
			err = fmt.Errorf("unsupported classifier %T", cls)
		}
		if err != nil {
			return nil, fmt.Errorf("compiled: concept %d: %w", c, err)
		}
		m.progs = append(m.progs, p)
	}
	return m, nil
}

// addDist appends a length-k distribution to the arena.
func (m *Model) addDist(dist []float64) (int32, error) {
	if len(dist) != m.k {
		return 0, fmt.Errorf("distribution has %d classes, schema has %d", len(dist), m.k)
	}
	off := int32(len(m.arena))
	m.arena = append(m.arena, dist...)
	return off, nil
}

func (m *Model) compileTree(t *tree.Tree) (program, error) {
	if t.Root == nil {
		return program{}, fmt.Errorf("tree has no root")
	}
	root, err := m.addTreeNode(t, t.Root)
	if err != nil {
		return program{}, err
	}
	return program{kind: progTree, root: root}, nil
}

// addTreeNode lowers nd and its subtree, returning nd's flat index.
func (m *Model) addTreeNode(t *tree.Tree, nd *tree.Node) (int32, error) {
	dist, err := m.addDist(nd.Dist)
	if err != nil {
		return 0, err
	}
	idx := int32(len(m.nodes))
	m.nodes = append(m.nodes, node{
		attr:  int32(nd.Attr),
		class: int32(nd.Class),
		thr:   nd.Threshold,
		dist:  dist,
	})
	if nd.IsLeaf() {
		return idx, nil
	}
	if nd.Attr < 0 || nd.Attr >= len(t.Schema.Attributes) {
		return 0, fmt.Errorf("split attribute %d out of schema range", nd.Attr)
	}
	// Reserve the child block before recursing: appends during recursion
	// move m.nodes, so the parent is patched through its index.
	off := int32(len(m.childIdx))
	for range nd.Children {
		m.childIdx = append(m.childIdx, -1)
	}
	m.nodes[idx].numeric = t.Schema.Attributes[nd.Attr].Kind == data.Numeric
	m.nodes[idx].child = off
	m.nodes[idx].nchild = int32(len(nd.Children))
	for i, ch := range nd.Children {
		if ch == nil {
			continue
		}
		ci, err := m.addTreeNode(t, ch)
		if err != nil {
			return 0, err
		}
		m.childIdx[off+int32(i)] = ci
	}
	return idx, nil
}

func (m *Model) compileBayes(b *bayes.Model) (program, error) {
	schema, logPrio, nominal, mean, stddev := b.Params()
	if schema.NumClasses() != m.k {
		return program{}, fmt.Errorf("bayes model has %d classes, schema has %d", schema.NumClasses(), m.k)
	}
	if len(logPrio) != m.k {
		return program{}, fmt.Errorf("bayes log-prior has %d classes, schema has %d", len(logPrio), m.k)
	}
	prio, err := m.addDist(logPrio)
	if err != nil {
		return program{}, err
	}
	p := program{kind: progBayes, logPrio: prio, battrOff: int32(len(m.battrs))}
	for a, attr := range schema.Attributes {
		ba := battr{attr: int32(a), off: int32(len(m.arena))}
		if attr.Kind == data.Nominal {
			card := attr.Cardinality()
			if len(nominal[a]) != m.k {
				return program{}, fmt.Errorf("bayes nominal table for attr %d has %d classes", a, len(nominal[a]))
			}
			ba.nominal = true
			ba.card = int32(card)
			for c := 0; c < m.k; c++ {
				if len(nominal[a][c]) != card {
					return program{}, fmt.Errorf("bayes nominal table for attr %d class %d has %d values, want %d", a, c, len(nominal[a][c]), card)
				}
				m.arena = append(m.arena, nominal[a][c]...)
			}
		} else {
			if len(mean[a]) != m.k || len(stddev[a]) != m.k {
				return program{}, fmt.Errorf("bayes gaussian params for attr %d are mis-sized", a)
			}
			m.arena = append(m.arena, mean[a]...)
			m.arena = append(m.arena, stddev[a]...)
			// log σ precomputed by the same math.Log the interpreted
			// evaluator calls inline, so the subtraction chain sees
			// bit-identical operands.
			for c := 0; c < m.k; c++ {
				m.arena = append(m.arena, math.Log(stddev[a][c]))
			}
		}
		m.battrs = append(m.battrs, ba)
	}
	p.battrN = int32(len(m.battrs)) - p.battrOff
	return p, nil
}

func (m *Model) compileRules(rs *tree.RuleSet) (program, error) {
	defDist, err := m.addDist(rs.DefaultDist())
	if err != nil {
		return program{}, fmt.Errorf("rules default %w", err)
	}
	p := program{
		kind:     progRules,
		ruleOff:  int32(len(m.rules)),
		defClass: int32(rs.Default),
		defDist:  defDist,
	}
	for ri := range rs.Rules {
		ru := &rs.Rules[ri]
		rm := ruleMeta{condOff: int32(len(m.conds)), class: int32(ru.Class)}
		for _, c := range ru.Conditions {
			m.conds = append(m.conds, cond{attr: int32(c.Attr), op: uint8(c.Op), val: c.Value})
		}
		rm.condN = int32(len(ru.Conditions))
		// Precompute the firing rule's PredictProba answer with the exact
		// expression tree.RuleSet.PredictProba evaluates per call.
		dist := make([]float64, m.k)
		rest := (1 - ru.Confidence) / float64(m.k-1)
		for c := 0; c < m.k; c++ {
			if c == int(rm.class) {
				dist[c] = ru.Confidence
			} else {
				dist[c] = rest
			}
		}
		if rm.dist, err = m.addDist(dist); err != nil {
			return program{}, err
		}
		m.rules = append(m.rules, rm)
	}
	p.ruleN = int32(len(m.rules)) - p.ruleOff
	return p, nil
}

// compileMajority lowers a Majority classifier to a one-leaf tree
// program. Majority ignores its input, so the leaf's class is Predict of
// any record and its distribution is PredictProba of any record.
func (m *Model) compileMajority(c *classifier.Majority) (program, error) {
	dist, err := m.addDist(c.PredictProba(data.Record{}))
	if err != nil {
		return program{}, fmt.Errorf("majority %w", err)
	}
	root := int32(len(m.nodes))
	m.nodes = append(m.nodes, node{class: int32(c.Predict(data.Record{})), dist: dist})
	return program{kind: progTree, root: root}, nil
}
