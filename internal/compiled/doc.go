// Package compiled lowers a trained core.Model into flat decision tables
// and provides a compiled twin of core.Predictor for the serving hot path.
//
// The compiler (Compile) walks each concept's base classifier —
// *tree.Tree, *bayes.Model, *tree.RuleSet, or *classifier.Majority (a
// one-leaf tree) — and emits a pointer-free program over four shared
// arenas: a contiguous node table with int32 child indices instead of
// *Node pointers, one []float64 arena holding every leaf distribution,
// log-frequency table, and Gaussian parameter block, a flattened
// rule/condition table, and the transition matrix χ transposed
// row-major so the prior update streams sequentially. The
// compiled Predictor lays its online state out struct-of-arrays: post,
// prior, acc, and the bayes scratch share one backing []float64, and the
// pruning order is cached while the prior is valid. ClassifyBatch walks
// all of a session's queued records in one pass with zero allocations.
//
// # Equivalence contract
//
// The compiled form is an execution strategy, not a new model: for every
// supported classifier and every sequence of Predict / PredictProba /
// Observe / AdvanceTime / Snapshot / Restore calls, the compiled
// predictor produces bit-identical float64 outputs and bit-identical
// portable state (core.PredictorState) to the interpreted
// core.Predictor it was compiled from. This holds because the compiler
// preserves the exact floating-point operation order of the interpreted
// evaluators (same loop shapes, same left-associative expression
// structure; precomputed values like log σ are produced by the same
// math.Log the interpreted path calls), the tree and bayes walkers share
// the interpreted nominal fallback rule (a value selects a branch only
// when v >= 0 && v < float64(branches), checked in float space), and the
// cached pruning order is a pure function of the prior under a strict
// total order, so caching cannot change it. The contract is enforced by
// the golden-equivalence suite (golden_test.go) and the differential
// fuzzer (FuzzCompiledVsInterpreted); any divergence is a bug in this
// package, never an accepted tolerance.
//
// Compile returns an error, naming the concept, for classifier types it
// does not understand. Every type internal/dataio can load compiles, so
// internal/serve serves only compiled predictors and refuses a model
// Compile rejects at boot.
package compiled
