package analysis

import (
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// want is one expected diagnostic, parsed from a fixture comment of the
// form `// want <analyzer> "substring"`.
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
}

// loadFixture loads testdata/name as the CLI loads a directory argument.
func loadFixture(t *testing.T, name string) *Program {
	t.Helper()
	prog, err := NewLoader().LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Passes) == 0 {
		t.Fatalf("fixture %s: no passes", name)
	}
	return prog
}

// progWants parses the want annotations of every file of the program,
// once each, although several passes may hold a file.
func progWants(t *testing.T, prog *Program) []want {
	t.Helper()
	var files []*File
	seen := map[string]bool{}
	for _, pass := range prog.Passes {
		for _, f := range pass.Files {
			if !seen[f.Path] {
				seen[f.Path] = true
				files = append(files, f)
			}
		}
	}
	return parseWants(t, prog.Fset, files)
}

func parseWants(t *testing.T, fset *token.FileSet, files []*File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				parts := strings.SplitN(rest, " ", 2)
				w := want{file: pos.Filename, line: pos.Line, analyzer: parts[0]}
				if len(parts) == 2 {
					s, err := strconv.Unquote(strings.TrimSpace(parts[1]))
					if err != nil {
						t.Fatalf("%s:%d: unquoting want pattern %q: %v", pos.Filename, pos.Line, parts[1], err)
					}
					w.substr = s
				}
				out = append(out, w)
			}
		}
	}
	return out
}

// matchWants requires an exact correspondence between diagnostics and
// want annotations — no misses, no extras.
func matchWants(t *testing.T, diags []Diagnostic, wants []want) {
	t.Helper()
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line || d.Analyzer != w.analyzer {
				continue
			}
			if w.substr != "" && !strings.Contains(d.Message, w.substr) {
				continue
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("missing diagnostic: %s:%d [%s] containing %q", w.file, w.line, w.analyzer, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestAnalyzersOnFixtures runs each analyzer over its violation fixture
// through Program.Run, as the CLI does for a directory argument, and
// requires an exact match between reported diagnostics and the fixture's
// want annotations — no misses, no extras. The seedplumb fixture holds the
// seed-plumbing cases of determinism's seed rule.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		fixture   string
		analyzers []string
	}{
		{"determinism", []string{"determinism"}},
		{"seedplumb", []string{"determinism"}},
		{"floatcmp", []string{"floatcmp"}},
		{"spanend", []string{"spanend"}},
		{"tracectx", []string{"tracectx"}},
		{"sleeploop", []string{"sleeploop"}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			prog := loadFixture(t, tc.fixture)
			analyzers, err := ByName(tc.analyzers)
			if err != nil {
				t.Fatal(err)
			}
			wants := progWants(t, prog)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want annotations", tc.fixture)
			}
			matchWants(t, prog.Run(analyzers), wants)
		})
	}
}

// TestSuppression runs the full suite over the suppress fixture, all of
// whose violations carry well-formed line-, function-, or file-scope
// directives.
func TestSuppression(t *testing.T) {
	for _, d := range loadFixture(t, "suppress").Run(All()) {
		t.Errorf("suppressed violation or well-formed directive reported: %s", d)
	}
}

// TestMalformedDirectives checks that directives that fail to parse are
// surfaced rather than silently ignored.
func TestMalformedDirectives(t *testing.T) {
	bad := loadFixture(t, "directives").Run(All())
	if len(bad) != 3 {
		t.Fatalf("want 3 malformed directives, got %d: %v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Analyzer != "directives" {
			t.Errorf("malformed directive reported under analyzer %q, want \"directives\"", d.Analyzer)
		}
	}
}

func TestByName(t *testing.T) {
	got, err := ByName([]string{"floatcmp", "determinism"})
	if err != nil {
		t.Fatal(err)
	}
	// Suite order is preserved regardless of request order.
	if len(got) != 2 || got[0].Name() != "determinism" || got[1].Name() != "floatcmp" {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name()
		}
		t.Fatalf("ByName returned %v, want [determinism floatcmp]", names)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
}

func TestDiagnosticString(t *testing.T) {
	analyzers, _ := ByName([]string{"floatcmp"})
	diags := loadFixture(t, "floatcmp").Run(analyzers)
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "[floatcmp]") || !strings.Contains(s, ":") {
		t.Errorf("unexpected diagnostic format: %q", s)
	}
}
