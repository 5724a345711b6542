package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the repository's seed-reproducibility contract
// (DESIGN.md, paper §II): every experiment must be bit-for-bit identical
// given a seed. Five classes of silent nondeterminism are flagged:
//
//  1. Calls to math/rand package-level functions that draw from the global
//     source (rand.Intn, rand.Float64, rand.Shuffle, ...). Constructors
//     that only build explicit sources (rand.New, rand.NewSource,
//     rand.NewZipf) are allowed — all randomness must flow through an
//     injected *rng.Source.
//  2. Calls to time.Now (and time.Since, which reads the wall clock).
//     Timing code must draw from an injectable clock (internal/clock) so
//     measured runs are mockable; the clock package itself carries the one
//     sanctioned //homlint:allow. This also covers a time-derived seed,
//     rand.NewSource(time.Now().UnixNano()).
//  3. A random source seeded from the process id: the seed argument of
//     math/rand.NewSource or Seed, or of rng.New, reads os.Getpid or
//     os.Getppid. Such a seed differs on every run. Other uses of the pid,
//     such as a unique directory name, stay legal.
//  4. Ranging over a map while appending to a slice declared outside the
//     loop, without a subsequent sort in the same function. Map iteration
//     order is randomized by the runtime, so such accumulation leaks
//     nondeterministic order into results or output.
//  5. Ranging over a map while pushing into a heap or queue (any call to a
//     function or method named push/Push inside the loop body). Heap pop
//     order is only independent of push order when the comparator is a
//     total order, which the analyzer cannot prove; iterate an ordered
//     list instead, or carry a //homlint:allow with the totality argument.
type Determinism struct{}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (*Determinism) Doc() string {
	return "flags global math/rand use, wall-clock reads, pid-seeded random sources, unsorted map-iteration accumulation, and heap pushes from map iteration"
}

// globalRandAllowed lists the math/rand package-level identifiers that do
// not touch the global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// Types, usable in composite/selector position.
	"Rand":   true,
	"Source": true,
	"Zipf":   true,
}

// Run implements Analyzer.
func (d *Determinism) Run(pass *Pass) {
	for _, f := range pass.Files {
		randName := ImportName(f.AST, "math/rand")
		randV2 := ImportName(f.AST, "math/rand/v2")
		timeName := ImportName(f.AST, "time")
		rngName := ImportName(f.AST, "highorder/internal/rng")
		osName := ImportName(f.AST, "os")
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			// Only package selectors, not method calls on values that
			// happen to share the import name.
			if obj, ok2 := pass.Info.Uses[id]; ok2 {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true
				}
			}
			switch {
			case (id.Name == randName && randName != "") || (id.Name == randV2 && randV2 != ""):
				if !globalRandAllowed[sel.Sel.Name] {
					pass.Report(sel.Pos(), "call to global math/rand.%s: draw from an injected *rng.Source so runs are seed-reproducible", sel.Sel.Name)
				}
			case id.Name == timeName && timeName != "":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					pass.Report(sel.Pos(), "call to time.%s: inject a clock.Clock (internal/clock) so timing is mockable and deterministic in tests", sel.Sel.Name)
				}
			}
			seeds := (id.Name == randName && randName != "" && (sel.Sel.Name == "NewSource" || sel.Sel.Name == "Seed")) ||
				(id.Name == rngName && rngName != "" && sel.Sel.Name == "New")
			if seeds && len(call.Args) > 0 {
				if pid := pidRead(call.Args[0], osName); pid != "" {
					pass.Report(call.Args[0].Pos(), "%s.%s seeded from os.%s: plumb the seed from configuration so runs are reproducible", id.Name, sel.Sel.Name, pid)
				}
			}
			return true
		})
		d.checkMapOrder(pass, f)
	}
}

// pidRead returns "Getpid" or "Getppid" when expr calls that function of
// the os package imported as osName, or "" when it calls neither.
func pidRead(expr ast.Expr, osName string) string {
	if osName == "" {
		return ""
	}
	found := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == osName && (sel.Sel.Name == "Getpid" || sel.Sel.Name == "Getppid") {
				found = sel.Sel.Name
			}
		}
		return found == ""
	})
	return found
}

// checkMapOrder flags `for k := range m { out = append(out, ...) }` where m
// is a map and no sort call follows in the enclosing function, and any
// push/Push call inside a map-range body (heap fills whose pop order the
// analyzer cannot prove independent of push order). Channel sends stay out
// of scope: order-insensitive sinks are common and fine.
func (d *Determinism) checkMapOrder(pass *Pass, f *File) {
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var ranges []*ast.RangeStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && d.isMapExpr(pass, fd, rs.X) {
				ranges = append(ranges, rs)
			}
			return true
		})
		if len(ranges) == 0 {
			continue
		}
		sorted := containsSortCall(fd.Body)
		for _, rs := range ranges {
			if target := appendTargetOutsideLoop(rs); target != "" && !sorted {
				pass.Report(rs.Pos(), "range over map accumulates into %q without a subsequent sort: map order is randomized, so results are nondeterministic", target)
			}
			if name := pushCallInLoop(rs); name != "" {
				pass.Report(rs.Pos(), "range over map pushes into a heap via %s: map order is randomized, and pop order is only independent of push order for a provably total comparator — iterate an ordered list instead", name)
			}
		}
	}
}

// isMapExpr reports whether x is map-typed, using type info when available
// and a local-declaration scan otherwise.
func (d *Determinism) isMapExpr(pass *Pass, fd *ast.FuncDecl, x ast.Expr) bool {
	if t := pass.TypeOf(x); t != nil {
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	}
	// Syntax fallback: the ranged expression is an identifier assigned a
	// map literal or make(map[...]...) somewhere in this function.
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			l, ok := lhs.(*ast.Ident)
			if !ok || l.Name != id.Name || i >= len(as.Rhs) {
				continue
			}
			if isMapValueExpr(as.Rhs[i]) {
				found = true
			}
		}
		return true
	})
	return found
}

func isMapValueExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			_, ok := v.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// appendTargetOutsideLoop returns the name of a variable that the range
// body appends into and that is declared outside the range statement, or
// "" when the loop does not accumulate that way.
func appendTargetOutsideLoop(rs *ast.RangeStmt) string {
	declared := map[string]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok.String() == ":=" {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					declared[id.Name] = true
				}
			}
		}
		return true
	})
	target := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && !declared[id.Name] {
				target = id.Name
			}
		}
		return true
	})
	return target
}

// pushCallInLoop returns the rendered name of a push/Push call inside the
// range body (heap.Push, q.push, ...), or "" when there is none.
func pushCallInLoop(rs *ast.RangeStmt) string {
	name := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "push" || fn.Name == "Push" {
				name = fn.Name
			}
		case *ast.SelectorExpr:
			if fn.Sel.Name == "push" || fn.Sel.Name == "Push" {
				name = fn.Sel.Name
				if id, ok := fn.X.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
		}
		return true
	})
	return name
}

// containsSortCall reports whether the body calls anything that plausibly
// restores a deterministic order: a function whose name contains "sort" or
// "order" (sort.Slice, slices.SortFunc, orderByFirstMember, ...).
func containsSortCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			name = fn.Name
		case *ast.SelectorExpr:
			name = fn.Sel.Name
			if id, ok := fn.X.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		lower := strings.ToLower(name)
		if strings.Contains(lower, "sort") || strings.Contains(lower, "order") {
			found = true
		}
		return true
	})
	return found
}
