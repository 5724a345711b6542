// Package analysis is a small stdlib-only static-analysis framework plus
// the project-specific analyzers that enforce the repository's determinism
// and concurrency invariants. The paper's pipeline — concept clustering,
// transition estimation, active-probability tracking — is only reproducible
// when every stage is bit-for-bit deterministic under a seed, so the things
// Go makes easy to get wrong silently (global math/rand state, wall-clock
// reads, process-id seeds, map-iteration order, lock-order inversions,
// hot-path allocations, silent snapshot-format drift) are checked
// mechanically by `go run ./cmd/homlint ./...` rather than by convention;
// copied locks are left to `go vet`'s copylocks check.
//
// The engine is whole-module and flow-aware. A Loader checks every package
// of the module in dependency order, so intra-module imports carry complete
// type information; the Program ties the checked packages to a static call
// graph (callgraph.go) and a cross-package fact store (facts.go).
// Program.Run runs the per-package analyzers over every pass in order,
// where they report findings and export facts; module analyzers then join,
// propagating findings across function and package boundaries (lock-order
// cycles, hot-path reachability, the gob snapshot fingerprint).
//
// The framework deliberately mirrors the shape of golang.org/x/tools/go/
// analysis without depending on it: an Analyzer runs over one package Pass
// and reports position-tagged Diagnostics; a ModuleAnalyzer additionally
// joins over the whole Program. A finding is suppressed, next to its code,
// by a `//homlint:allow <analyzer> -- reason` directive (see directives.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	// Pos is the resolved file:line:column of the finding.
	Pos token.Position
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Message describes the violation and, where possible, the fix.
	Message string
	// Fix, when non-nil, is a mechanical edit that resolves the finding;
	// cmd/homlint applies it under -fix.
	Fix *Fix
}

// Fix is one mechanical text edit: replace [Start,End) of the file at Path
// with NewText. Offsets are byte offsets; Start==End inserts. A Fix whose
// End is -1 replaces the whole file (used for generated artifacts like the
// snapshot fingerprint).
type Fix struct {
	Path    string
	Start   int
	End     int
	NewText string
}

// String renders the diagnostic in the conventional file:line:col form
// consumed by editors.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check over a package.
type Analyzer interface {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //homlint:allow directives.
	Name() string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc() string
	// Run inspects the pass and reports findings via pass.Report. For a
	// ModuleAnalyzer this is the per-package phase, which typically exports
	// facts rather than reporting.
	Run(pass *Pass)
}

// ModuleAnalyzer is an Analyzer that needs the whole program: after every
// package's Run has completed (and its facts are exported), Join runs once
// with the assembled Program and reports cross-package findings.
type ModuleAnalyzer interface {
	Analyzer
	Join(prog *Program, report func(Diagnostic))
}

// File is one parsed source file of a pass.
type File struct {
	// Path is the file path as given to the loader.
	Path string
	// AST is the parsed file, with comments.
	AST *ast.File
	// Test reports whether this is a _test.go file.
	Test bool
}

// Pass carries one package's syntax and type information through the
// analyzers, and collects their diagnostics.
type Pass struct {
	// Fset resolves token positions for every file of the pass.
	Fset *token.FileSet
	// Dir is the package directory, relative to the analysis root.
	Dir string
	// Path is the package import path, or "" outside a module.
	Path string
	// Name is the package name.
	Name string
	// Files are the pass's source files, sorted by path.
	Files []*File
	// Info is the result of type-checking the pass. Within a module load,
	// intra-module imports resolve to fully checked packages; imports
	// outside the module and the standard library are stubbed, so analyzers
	// must still treat Info as best-effort and fall back to syntax.
	Info *types.Info
	// Pkg is the checked package (possibly marked invalid on stub-induced
	// errors; still usable for qualified naming).
	Pkg *types.Package
	// Prog is the owning program.
	Prog *Program
	// Canonical marks the non-test pass of a package — the pass the call
	// graph and module analyzers are built from.
	Canonical bool

	// testOnly marks a test-augmented re-check of a canonical package:
	// only diagnostics anchored in test files are kept, the rest being
	// duplicates of the canonical pass.
	testOnly bool

	analyzer string
	diags    []Diagnostic
}

// Report records a finding at pos for the currently running analyzer.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a finding carrying a mechanical fix.
func (p *Pass) ReportFix(pos token.Pos, fix *Fix, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// TypeOf returns the type of e, or nil when type-checking could not
// resolve it (e.g. it involves a stubbed import).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	t := p.Info.TypeOf(e)
	if t == nil || t == types.Typ[types.Invalid] {
		return nil
	}
	return t
}

// Program is one loaded source tree: every pass of every package, the
// shared fact store, and the lazily built call graph.
type Program struct {
	// Fset resolves positions program-wide.
	Fset *token.FileSet
	// Root is the directory the program was loaded from.
	Root string
	// ModulePath is the module path from go.mod, or "".
	ModulePath string
	// Passes is every pass in analysis order (canonical, test-augmented,
	// external-test per package; packages in dependency order).
	Passes []*Pass
	// Canon is the canonical (non-test) passes only, in dependency order —
	// the program slice module analyzers and the call graph operate on.
	Canon []*Pass
	// Facts is the cross-package fact store.
	Facts *FactStore

	graph *CallGraph
}

// Graph returns the program's call graph, building it on first use.
func (prog *Program) Graph() *CallGraph {
	if prog.graph == nil {
		prog.graph = buildCallGraph(prog)
	}
	return prog.graph
}

// Run executes the analyzers over every pass of the program in order, then
// runs each ModuleAnalyzer's join, and returns the findings that survive
// suppression directives, sorted by position. Malformed directives are
// reported under the name "directives", whichever analyzers run. A
// test-augmented pass keeps only the findings in its test files; the
// canonical pass reports the rest.
func (prog *Program) Run(analyzers []Analyzer) []Diagnostic {
	sup := collectDirectives(prog)
	out := sup.malformed
	report := func(d Diagnostic) {
		if !sup.allows(d) {
			out = append(out, d)
		}
	}
	for _, pass := range prog.Passes {
		for _, a := range analyzers {
			pass.analyzer = a.Name()
			pass.diags = pass.diags[:0]
			a.Run(pass)
			for _, d := range pass.diags {
				if !pass.testOnly || isTestFile(pass, d.Pos.Filename) {
					report(d)
				}
			}
		}
	}
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			ma.Join(prog, func(d Diagnostic) {
				d.Analyzer = ma.Name()
				report(d)
			})
		}
	}
	sortDiagnostics(out)
	return out
}

func isTestFile(pass *Pass, filename string) bool {
	for _, f := range pass.Files {
		if f.Path == filename {
			return f.Test
		}
	}
	return false
}

// ImportName returns the local name under which file imports path, or ""
// when the file does not import it. Dot and blank imports return "".
func ImportName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if imp.Path.Value != `"`+path+`"` {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		// Default name: the last path element.
		p := path
		for i := len(p) - 1; i >= 0; i-- {
			if p[i] == '/' {
				return p[i+1:]
			}
		}
		return p
	}
	return ""
}

// IsPkgCall reports whether call is pkgName.fn(...) for the given local
// package name, returning the selector for position reporting.
func IsPkgCall(call *ast.CallExpr, pkgName, fn string) (*ast.SelectorExpr, bool) {
	if pkgName == "" {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgName {
		return nil, false
	}
	return sel, true
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer and
// message, so output is deterministic.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		&Determinism{},
		&FloatCmp{},
		&SpanEnd{},
		&TraceCtx{},
		&SleepLoop{},
		&LockOrder{},
		&HotPathAlloc{},
		&SnapshotCompat{},
		&ErrDrop{},
	}
}

// ByName returns the subset of All whose names appear in names, preserving
// suite order, or an error naming the first unknown entry.
func ByName(names []string) ([]Analyzer, error) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name()] = true
	}
	want := map[string]bool{}
	for _, n := range names {
		if !known[n] {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		want[n] = true
	}
	var out []Analyzer
	for _, a := range All() {
		if want[a.Name()] {
			out = append(out, a)
		}
	}
	return out, nil
}
