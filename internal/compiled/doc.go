// Package compiled is a compiler plus a concept evaluator: it lowers a
// trained core.Model's concept classifiers into flat decision tables that
// core.Predictor evaluates on the serving hot path.
//
// The compiler (Compile) walks each concept's base classifier —
// *tree.Tree, *bayes.Model, or *classifier.Majority (a one-leaf tree) —
// and emits a pointer-free program over three shared arenas: a contiguous
// node table with int32 child indices instead of *Node pointers, one
// []float64 arena holding every leaf distribution, log-frequency table,
// and Gaussian parameter block, and the naive-bayes attribute table. A
// *Model is a core.ConceptEvaluator (ConceptPredict, ConceptDist) for the
// model it was compiled from; NewPredictor returns that model's
// core.Predictor over the tables. The online state machine — χ, ψ, the
// ensemble, the pruning, snapshots — is core's alone.
//
// # Equivalence contract
//
// The compiled form is an execution strategy, not a new model: for every
// supported classifier and every record, ConceptPredict and ConceptDist
// answer bit-identically to the concept's own Predict and PredictProba.
// This holds because the compiler preserves the exact floating-point
// operation order of the classifiers (same loop shapes, same
// left-associative expression structure; precomputed values like log σ
// are produced by the same math.Log the classifier calls), and the tree
// and bayes walkers share the classifiers' nominal fallback rule (a value
// selects a branch only when v >= 0 && v < float64(branches), checked in
// float space). The golden-equivalence suite (golden_test.go) and the
// differential fuzzer (FuzzCompiledVsInterpreted) run core.Predictor over
// the tables and over the classifiers against a test-only oracle, the
// interpreted predictor kept in oracle_test.go, so they check the tables
// and the state machine at once; any divergence is a bug, never an
// accepted tolerance.
//
// Compile returns an error, naming the concept, for classifier types it
// does not understand. Every type internal/dataio can load compiles, so
// internal/serve serves only compiled models and refuses a model Compile
// rejects at boot.
package compiled
