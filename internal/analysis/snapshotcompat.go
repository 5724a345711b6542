package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SnapshotCompat guards the on-disk model format: it fingerprints the
// gob-encoded Snapshot/Restore struct set and fails when the set changes
// without a ModelVersion bump.
//
// The per-package phase records every type that enters a gob stream —
// arguments of gob.Register/RegisterName and of (*gob.Encoder).Encode /
// (*gob.Decoder).Decode — plus every ModelVersion constant, as facts. The
// join expands the root types through their exported fields (gob only
// encodes exported fields; expansion stops at types with a custom
// GobEncode), renders a canonical fingerprint, and compares it against the
// committed lint/snapshot_fingerprint.txt:
//
//   - fingerprint file missing          -> finding with a -fix that creates it
//   - fields changed, same ModelVersion -> hard finding (bump the version)
//   - fields changed, version bumped    -> finding with a -fix that
//     regenerates the file
//
// A snapshot written by version N must never be parsed as version N' with
// silently different field semantics — exactly the drift this check makes
// impossible to merge unnoticed.
type SnapshotCompat struct{}

// Name implements Analyzer.
func (*SnapshotCompat) Name() string { return "snapshotcompat" }

// Doc implements Analyzer.
func (*SnapshotCompat) Doc() string {
	return "fingerprint the gob snapshot struct set and require a ModelVersion bump on change"
}

// FingerprintFile is the committed fingerprint path, relative to the
// analysis root.
const FingerprintFile = "lint/snapshot_fingerprint.txt"

// snapshotKey is the sentinel fact key for program-level snapshot facts.
var snapshotKey = new(int)

// gobRootFact records one type observed entering a gob stream.
type gobRootFact struct {
	t   types.Type
	pos token.Pos
}

// AFact implements Fact.
func (*gobRootFact) AFact() {}

// modelVersionFact records one ModelVersion constant.
type modelVersionFact struct {
	pkg string
	val string
	pos token.Pos
}

// AFact implements Fact.
func (*modelVersionFact) AFact() {}

// Run records gob root types and ModelVersion constants as facts.
func (a *SnapshotCompat) Run(pass *Pass) {
	if !pass.Canonical {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				if arg, ok := gobRootArg(pass, v); ok {
					if t := pass.TypeOf(arg); t != nil {
						pass.Prog.Facts.Export(a.Name(), snapshotKey, &gobRootFact{t: t, pos: arg.Pos()})
					}
				}
			case *ast.ValueSpec:
				for _, name := range v.Names {
					if name.Name != "ModelVersion" {
						continue
					}
					c, ok := pass.Info.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					pass.Prog.Facts.Export(a.Name(), snapshotKey, &modelVersionFact{
						pkg: pass.Name,
						val: c.Val().ExactString(),
						pos: name.Pos(),
					})
				}
			}
			return true
		})
	}
}

// gobRootArg matches gob.Register(x), gob.RegisterName(name, x),
// (*gob.Encoder).Encode(x) and (*gob.Decoder).Decode(x), returning the
// payload argument.
func gobRootArg(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	if fn.Pkg().Path() == "encoding/gob" {
		switch fn.Name() {
		case "Register", "RegisterName":
			return call.Args[len(call.Args)-1], true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "encoding/gob" {
			switch named.Obj().Name() + "." + fn.Name() {
			case "Encoder.Encode", "Decoder.Decode", "Encoder.EncodeValue", "Decoder.DecodeValue":
				return call.Args[0], true
			}
		}
	}
	return nil, false
}

// Join renders the fingerprint and compares it against the committed file.
func (a *SnapshotCompat) Join(prog *Program, report func(Diagnostic)) {
	var roots []*gobRootFact
	var versions []*modelVersionFact
	for _, f := range prog.Facts.Import(a.Name(), snapshotKey) {
		switch v := f.(type) {
		case *gobRootFact:
			roots = append(roots, v)
		case *modelVersionFact:
			versions = append(versions, v)
		}
	}
	if len(roots) == 0 {
		return
	}

	modulePkgs := map[*types.Package]bool{}
	for _, pass := range prog.Canon {
		if pass.Pkg != nil {
			modulePkgs[pass.Pkg] = true
		}
	}

	version := "0"
	reportPos := roots[0].pos
	if len(versions) > 0 {
		sort.Slice(versions, func(i, j int) bool { return versions[i].pkg < versions[j].pkg })
		var vals []string
		seen := map[string]bool{}
		for _, v := range versions {
			s := v.val
			if len(versions) > 1 {
				s = v.pkg + "=" + v.val
			}
			if !seen[s] {
				seen[s] = true
				vals = append(vals, s)
			}
		}
		version = strings.Join(vals, ",")
		reportPos = versions[0].pos
	}

	current := renderFingerprint(version, roots, modulePkgs)
	path := filepath.Join(prog.Root, filepath.FromSlash(FingerprintFile))
	regen := &Fix{Path: path, Start: 0, End: -1, NewText: current}

	recorded, err := os.ReadFile(path)
	if err != nil {
		report(Diagnostic{
			Pos: prog.Fset.Position(reportPos),
			Message: fmt.Sprintf("gob snapshot fingerprint %s is missing; run `homlint -fix` to create it",
				FingerprintFile),
			Fix: regen,
		})
		return
	}
	if string(recorded) == current {
		return
	}
	if recordedVersion(string(recorded)) != version {
		report(Diagnostic{
			Pos: prog.Fset.Position(reportPos),
			Message: fmt.Sprintf("gob snapshot fingerprint %s is stale after a ModelVersion change; run `homlint -fix` to regenerate it",
				FingerprintFile),
			Fix: regen,
		})
		return
	}
	report(Diagnostic{
		Pos: prog.Fset.Position(reportPos),
		Message: fmt.Sprintf("gob snapshot struct set changed without a ModelVersion bump (%s); bump ModelVersion, then run `homlint -fix` to regenerate %s",
			fingerprintDiff(string(recorded), current), FingerprintFile),
	})
}

// renderFingerprint walks the root set's exported-field closure and
// renders the canonical fingerprint text.
func renderFingerprint(version string, roots []*gobRootFact, modulePkgs map[*types.Package]bool) string {
	qual := func(p *types.Package) string { return p.Name() }
	lineSet := map[string]bool{}
	queued := map[string]bool{}
	var queue []*types.Named

	addType := func(t types.Type) {
		named := namedOf(t)
		if named == nil || named.Obj().Pkg() == nil || !modulePkgs[named.Obj().Pkg()] {
			return
		}
		name := ownerName(named)
		if !queued[name] {
			queued[name] = true
			queue = append(queue, named)
		}
	}
	// Named module types referenced anywhere inside a field type join the
	// closure too (slices of structs, maps of structs, ...).
	var scanRefs func(t types.Type, depth int)
	scanRefs = func(t types.Type, depth int) {
		if depth > 10 || t == nil {
			return
		}
		switch v := t.(type) {
		case *types.Named:
			addType(v)
		case *types.Pointer:
			scanRefs(v.Elem(), depth+1)
		case *types.Slice:
			scanRefs(v.Elem(), depth+1)
		case *types.Array:
			scanRefs(v.Elem(), depth+1)
		case *types.Map:
			scanRefs(v.Key(), depth+1)
			scanRefs(v.Elem(), depth+1)
		}
	}

	for _, r := range roots {
		t := r.t
		scanRefs(t, 0)
		if named := namedOf(t); named != nil && (named.Obj().Pkg() == nil || !modulePkgs[named.Obj().Pkg()]) {
			lineSet[ownerName(named)+": external "+types.TypeString(named.Underlying(), qual)] = true
		}
	}

	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		name := ownerName(named)
		if hasGobEncode(named) {
			lineSet[name+": custom GobEncode"] = true
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			lineSet[name+": "+types.TypeString(named.Underlying(), qual)] = true
			scanRefs(named.Underlying(), 0)
			continue
		}
		exported := 0
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if !field.Exported() {
				continue
			}
			exported++
			lineSet[fmt.Sprintf("%s.%s: %s", name, field.Name(), types.TypeString(field.Type(), qual))] = true
			scanRefs(field.Type(), 0)
		}
		if exported == 0 {
			lineSet[name+": no exported fields"] = true
		}
	}

	lines := make([]string, 0, len(lineSet))
	for l := range lineSet {
		lines = append(lines, l)
	}
	sort.Strings(lines)

	var b strings.Builder
	b.WriteString("# gob snapshot fingerprint — maintained by homlint snapshotcompat.\n")
	b.WriteString("# After changing any field below, bump ModelVersion and run `go run ./cmd/homlint -fix ./...`.\n")
	b.WriteString("model-version: " + version + "\n")
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// hasGobEncode reports whether the type (or its pointer) provides a
// custom gob encoding.
func hasGobEncode(named *types.Named) bool {
	for _, name := range []string{"GobEncode", "MarshalBinary"} {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}

// recordedVersion extracts the "model-version:" line of a fingerprint file.
func recordedVersion(text string) string {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "model-version:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// fingerprintDiff summarizes the line-level difference between two
// fingerprints, capped for readability.
func fingerprintDiff(before, after string) string {
	oldSet := map[string]bool{}
	newSet := map[string]bool{}
	for _, l := range strings.Split(before, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			oldSet[l] = true
		}
	}
	for _, l := range strings.Split(after, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			newSet[l] = true
		}
	}
	var added, removed []string
	for l := range newSet {
		if !oldSet[l] {
			added = append(added, l)
		}
	}
	for l := range oldSet {
		if !newSet[l] {
			removed = append(removed, l)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	var parts []string
	const maxDiff = 4
	for i, l := range added {
		if i == maxDiff {
			parts = append(parts, fmt.Sprintf("+%d more", len(added)-maxDiff))
			break
		}
		parts = append(parts, "+ "+l)
	}
	for i, l := range removed {
		if i == maxDiff {
			parts = append(parts, fmt.Sprintf("-%d more", len(removed)-maxDiff))
			break
		}
		parts = append(parts, "- "+l)
	}
	if len(parts) == 0 {
		return "formatting drift"
	}
	return strings.Join(parts, "; ")
}
