package analysis

import (
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

func loadFixture(t *testing.T, name string) *Pass {
	t.Helper()
	prog, err := NewLoader().LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Passes) == 0 {
		t.Fatalf("fixture %s: no passes", name)
	}
	// A fixture with in-package test files yields a canonical pass plus a
	// test-augmented one; the augmented pass holds every file, which is
	// what the single-pass harness wants.
	best := prog.Passes[0]
	for _, p := range prog.Passes[1:] {
		if len(p.Files) > len(best.Files) {
			best = p
		}
	}
	return best
}

func parseWants(t *testing.T, pass *Pass) []want {
	t.Helper()
	var out []want
	for _, f := range pass.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
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
// and requires an exact match between reported diagnostics and the
// fixture's want annotations — no misses, no extras.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		fixture   string
		analyzers []string
	}{
		{"determinism", []string{"determinism"}},
		{"seedplumb", []string{"seedplumb"}},
		{"floatcmp", []string{"floatcmp"}},
		{"spanend", []string{"spanend"}},
		{"tracectx", []string{"tracectx"}},
		{"sleeploop", []string{"sleeploop"}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			pass := loadFixture(t, tc.fixture)
			analyzers, err := ByName(tc.analyzers)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(pass, analyzers)
			wants := parseWants(t, pass)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want annotations", tc.fixture)
			}
			matchWants(t, diags, wants)
		})
	}
}

// TestSuppression runs the full suite over the suppress fixture, all of
// whose violations carry line-, function-, or file-scope directives.
func TestSuppression(t *testing.T) {
	pass := loadFixture(t, "suppress")
	if diags := Run(pass, All()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("suppressed violation still reported: %s", d)
		}
	}
	if bad := CheckDirectives(pass); len(bad) != 0 {
		for _, d := range bad {
			t.Errorf("well-formed directive reported as malformed: %s", d)
		}
	}
}

// TestMalformedDirectives checks that directives that fail to parse are
// surfaced rather than silently ignored.
func TestMalformedDirectives(t *testing.T) {
	pass := loadFixture(t, "directives")
	bad := CheckDirectives(pass)
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
	pass := loadFixture(t, "floatcmp")
	analyzers, _ := ByName([]string{"floatcmp"})
	diags := Run(pass, analyzers)
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "[floatcmp]") || !strings.Contains(s, ":") {
		t.Errorf("unexpected diagnostic format: %q", s)
	}
}
