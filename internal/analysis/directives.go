package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives let a reviewed, justified exception coexist with a
// mechanically enforced invariant. Three scopes are supported:
//
//	//homlint:allow <analyzer> -- <reason>      line scope
//	//homlint:func-allow <analyzer> -- <reason> function scope (in the doc comment)
//	//homlint:file-allow <analyzer> -- <reason> file scope (anywhere in the file)
//
// A line-scope directive suppresses findings of <analyzer> on its own line
// or the line immediately below it (so it can trail the offending code or
// sit on its own line above). <analyzer> may be "all". The "-- reason" tail
// is required: Program.Run reports an unexplained suppression, or any other
// directive that does not parse, as a finding of its own under the name
// "directives".
//
// One marker directive exists besides the allow family:
//
//	//homlint:hotpath                           function doc comment
//
// It takes no arguments and declares the function a hot-path root for the
// hotpathalloc analyzer: allocation sources in the function, or in anything
// reachable from it through the call graph, become findings.

const directivePrefix = "//homlint:"

// suppressions indexes directives for the allows test.
type suppressions struct {
	// fileAllow maps filename -> analyzer set suppressed for the whole file.
	fileAllow map[string]map[string]bool
	// lineAllow maps filename -> line -> analyzer set. A directive at line L
	// registers L and L+1.
	lineAllow map[string]map[int]map[string]bool
	// malformed collects directives that did not parse; Program.Run reports
	// them so typos fail loudly instead of silently not suppressing (or
	// worse, appearing to pass because the code was fixed).
	malformed []Diagnostic
}

func (s *suppressions) allows(d Diagnostic) bool {
	if set := s.fileAllow[d.Pos.Filename]; set != nil && (set["all"] || set[d.Analyzer]) {
		return true
	}
	if lines := s.lineAllow[d.Pos.Filename]; lines != nil {
		if set := lines[d.Pos.Line]; set != nil && (set["all"] || set[d.Analyzer]) {
			return true
		}
	}
	return false
}

// parseDirective parses one comment's text, returning ok=false when the
// comment is not a homlint directive at all, and malformed=true when it is
// one but does not follow the grammar.
func parseDirective(text string) (kind, analyzer, reason string, ok, malformed bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", "", false, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	body := rest
	if i := strings.Index(rest, "--"); i >= 0 {
		body = strings.TrimSpace(rest[:i])
		reason = strings.TrimSpace(rest[i+2:])
	} else {
		body = strings.TrimSpace(rest)
	}
	fields := strings.Fields(body)
	if len(fields) == 1 && fields[0] == "hotpath" {
		// Marker directive: no analyzer argument, reason optional.
		return "hotpath", "", reason, true, false
	}
	if len(fields) != 2 {
		return "", "", "", true, true
	}
	kind, analyzer = fields[0], fields[1]
	switch kind {
	case "allow", "func-allow", "file-allow":
	default:
		return "", "", "", true, true
	}
	if reason == "" {
		return "", "", "", true, true
	}
	return kind, analyzer, reason, true, false
}

// HasHotPathDirective reports whether the comment group carries the
// //homlint:hotpath marker.
func HasHotPathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if kind, _, _, ok, malformed := parseDirective(c.Text); ok && !malformed && kind == "hotpath" {
			return true
		}
	}
	return false
}

// collectDirectives gathers every homlint directive in the program, reading
// each file once although several passes may hold it.
func collectDirectives(prog *Program) *suppressions {
	s := &suppressions{
		fileAllow: map[string]map[string]bool{},
		lineAllow: map[string]map[int]map[string]bool{},
	}
	seen := map[string]bool{}
	for _, pass := range prog.Passes {
		for _, f := range pass.Files {
			if !seen[f.Path] {
				seen[f.Path] = true
				s.addFile(prog.Fset, f)
			}
		}
	}
	return s
}

// addFile registers the directives of one file.
func (s *suppressions) addFile(fset *token.FileSet, f *File) {
	// Function-scope directives live in doc comments; map them to the
	// declaration's full line range.
	funcRange := map[*ast.CommentGroup][2]int{}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		funcRange[fd.Doc] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
	}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			kind, analyzer, _, ok, malformed := parseDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if malformed {
				s.malformed = append(s.malformed, Diagnostic{
					Pos:      pos,
					Analyzer: "directives",
					Message:  "malformed homlint directive; want //homlint:(allow|func-allow|file-allow) <analyzer> -- <reason> or //homlint:hotpath",
				})
				continue
			}
			switch kind {
			case "file-allow":
				if s.fileAllow[pos.Filename] == nil {
					s.fileAllow[pos.Filename] = map[string]bool{}
				}
				s.fileAllow[pos.Filename][analyzer] = true
			case "func-allow":
				if r, ok := funcRange[cg]; ok {
					s.allowLines(pos.Filename, r[0], r[1], analyzer)
				} else {
					// Not a function doc comment: degrade to line scope.
					s.allowLines(pos.Filename, pos.Line, pos.Line+1, analyzer)
				}
			case "allow":
				s.allowLines(pos.Filename, pos.Line, pos.Line+1, analyzer)
			}
		}
	}
}

// allowLines suppresses analyzer on lines from through to of file.
func (s *suppressions) allowLines(file string, from, to int, analyzer string) {
	if s.lineAllow[file] == nil {
		s.lineAllow[file] = map[int]map[string]bool{}
	}
	for l := from; l <= to; l++ {
		if s.lineAllow[file][l] == nil {
			s.lineAllow[file][l] = map[string]bool{}
		}
		s.lineAllow[file][l][analyzer] = true
	}
}
