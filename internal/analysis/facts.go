package analysis

// Fact is a unit of analyzer knowledge attached to a program object —
// typically a *types.Func or *ast.FuncLit — during the per-package phase
// and consumed by a ModuleAnalyzer's join. Facts are how findings
// propagate across function and package boundaries: a package pass records
// what it can see locally (this function acquires that lock, this function
// allocates here, this type is gob-encoded), and the join stitches the
// local facts together over the call graph.
type Fact interface {
	// AFact brands the type; it has no behavior.
	AFact()
}

// FactStore is the program-wide fact table: package passes export into it,
// and joins read it after every pass has run.
type FactStore struct {
	m map[factKey][]Fact
}

// factKey scopes facts by owning analyzer so two analyzers can attach
// facts to the same object without colliding.
type factKey struct {
	analyzer string
	obj      any
}

func newFactStore() *FactStore {
	return &FactStore{m: map[factKey][]Fact{}}
}

// Export attaches a fact to obj under the analyzer's namespace.
func (s *FactStore) Export(analyzer string, obj any, f Fact) {
	k := factKey{analyzer, obj}
	s.m[k] = append(s.m[k], f)
}

// Import returns every fact attached to obj under the analyzer's
// namespace, in export order (per-object export order is deterministic:
// one pass owns each object).
func (s *FactStore) Import(analyzer string, obj any) []Fact {
	return s.m[factKey{analyzer, obj}]
}
