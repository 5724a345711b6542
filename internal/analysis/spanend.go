package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SpanEnd flags flight-recorder spans that are started but may never be
// ended in the starting function. A span reaches the ring only at End, so
// an unended span is silently missing from every dump, and with it every
// count the span or its instant children would have reported. The
// invariant is: whoever starts a span either ends it in the same function
// (defer End, or a plain End that no return statement can bypass) or
// visibly hands it off (returns it, stores it, passes it or its address
// on).
//
// A start is any call whose result type is FlightSpan of a package named
// obs — Recorder.Start or FlightSpan.Child — as resolved by the type
// checker. Test files are exempt: tests deliberately leave spans open.
type SpanEnd struct{}

// Name implements Analyzer.
func (*SpanEnd) Name() string { return "spanend" }

// Doc implements Analyzer.
func (*SpanEnd) Doc() string {
	return "flags obs flight spans started without a same-function End (defer or unconditional)"
}

// Run implements Analyzer.
func (se *SpanEnd) Run(pass *Pass) {
	for _, f := range pass.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body != nil {
					se.checkScope(pass, v.Body)
				}
			case *ast.FuncLit:
				se.checkScope(pass, v.Body)
			}
			return true
		})
	}
}

// spanStart is one span start bound to a variable in the scope.
type spanStart struct {
	name string
	pos  token.Pos
}

// spanEnd is one <var>.End() call in the scope.
type spanEnd struct {
	pos token.Pos
	// deferred is true for `defer sp.End()` and for End calls inside any
	// nested function literal (conservatively: a closure usually outlives
	// straight-line control flow, e.g. `defer func() { sp.End() }()`).
	deferred bool
}

// checkScope analyzes one function body. Nested function literals are
// their own scopes for starts (Run visits them separately); they are only
// scanned here when attributing End calls to this scope's variables.
func (se *SpanEnd) checkScope(pass *Pass, body *ast.BlockStmt) {
	// Pass 1 (own statements only): classify every span start.
	started := map[ast.Node]bool{} // span-start CallExprs seen
	claimed := map[ast.Node]bool{} // ... that are assigned, returned, or chained
	var startedList []ast.Node     // source order, for deterministic reports
	var starts []spanStart
	inOwn(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isSpanStart(pass, call) {
			started[call] = true
			startedList = append(startedList, call)
		}
	})
	inOwn(body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				if !started[rhs] || i >= len(v.Lhs) {
					continue
				}
				claimed[rhs] = true
				switch lhs := v.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						pass.Report(rhs.Pos(), "span assigned to _ is never ended: bind it and End it, or do not start it")
						continue
					}
					starts = append(starts, spanStart{name: lhs.Name, pos: rhs.Pos()})
				default:
					// Stored into a field or element: ownership visibly
					// handed off; out of scope for a syntactic check.
				}
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if started[res] {
					claimed[res] = true // caller owns the span
				}
			}
		case *ast.SelectorExpr:
			// rec.Start(tc, n).Context() — a method on the unbound result.
			// End has a pointer receiver, so it cannot be chained; the span
			// can never be ended.
			if started[v.X] {
				claimed[v.X] = true
				pass.Report(v.X.Pos(), "span result used without being bound or ended: assign the span and End it")
			}
		}
	})
	for _, call := range startedList {
		if !claimed[call] {
			pass.Report(call.Pos(), "span started and discarded: its End can never be called")
		}
	}
	if len(starts) == 0 {
		return
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].pos < starts[j].pos })

	// Pass 2: collect per-variable End calls, escapes, and return positions.
	ends := map[string][]spanEnd{}
	escaped := map[string]bool{}
	names := map[string]bool{}
	for _, s := range starts {
		names[s.name] = true
	}
	var returns []token.Pos
	var deferDepth, litDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeferStmt:
			deferDepth++
			ast.Inspect(v.Call, walk)
			deferDepth--
			return false
		case *ast.FuncLit:
			litDepth++
			ast.Inspect(v.Body, walk)
			litDepth--
			return false
		case *ast.ReturnStmt:
			if litDepth == 0 {
				returns = append(returns, v.Pos())
			}
			for _, res := range v.Results {
				if id, ok := res.(*ast.Ident); ok && names[id.Name] {
					escaped[id.Name] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && names[id.Name] {
					if sel.Sel.Name == "End" {
						ends[id.Name] = append(ends[id.Name], spanEnd{pos: v.Pos(), deferred: deferDepth > 0 || litDepth > 0})
					}
					// Other method calls on the span (Child, SetArg)
					// do not transfer ownership.
				}
			}
			// A span passed as a call argument, by value or by address,
			// escapes to the callee.
			for _, arg := range v.Args {
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = u.X
				}
				if id, ok := arg.(*ast.Ident); ok && names[id.Name] {
					escaped[id.Name] = true
				}
			}
		case *ast.CompositeLit:
			// Stored in a struct/slice literal (e.g. Options{Span: sp}).
			for _, el := range v.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if id, ok := e.(*ast.Ident); ok && names[id.Name] {
					escaped[id.Name] = true
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	// Pass 3: judge each start within its window (up to the next textual
	// rebinding of the same name).
	for i, s := range starts {
		if escaped[s.name] {
			continue
		}
		windowEnd := token.Pos(1 << 40)
		for j := i + 1; j < len(starts); j++ {
			if starts[j].name == s.name {
				windowEnd = starts[j].pos
				break
			}
		}
		var plain []token.Pos
		ended := false
		for _, e := range ends[s.name] {
			if e.pos <= s.pos || e.pos >= windowEnd {
				continue
			}
			if e.deferred {
				ended = true
				break
			}
			plain = append(plain, e.pos)
		}
		if ended {
			continue
		}
		if len(plain) == 0 {
			pass.Report(s.pos, "span %q is never ended in this function: add defer %s.End()", s.name, s.name)
			continue
		}
		sort.Slice(plain, func(a, b int) bool { return plain[a] < plain[b] })
		for _, r := range returns {
			if r > s.pos && r < plain[0] {
				pass.Report(s.pos, "span %q can leak past a return before its End: use defer %s.End() or End before the return", s.name, s.name)
				break
			}
		}
	}
}

// inOwn walks the statements of body, skipping nested function literals —
// those are separate scopes with their own checkScope visit.
func inOwn(body *ast.BlockStmt, visit func(n ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// isSpanStart reports whether call yields an obs FlightSpan.
func isSpanStart(pass *Pass, call *ast.CallExpr) bool {
	named, ok := pass.TypeOf(call).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "FlightSpan" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}
