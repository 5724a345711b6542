package analysis

import (
	"path/filepath"
	"testing"
)

// loadProgram loads a module-style fixture tree (recursively, with the
// call graph and fact store) rooted at testdata/name.
func loadProgram(t *testing.T, name string) *Program {
	t.Helper()
	prog, err := NewLoader().LoadModule(filepath.Join("testdata", filepath.FromSlash(name)))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestModuleAnalyzersOnFixtures runs each flow-aware analyzer over its
// fixture tree through Program.Run (per-package Run, fact export, module
// Join) and requires an exact match against the want
// annotations. The snapshotcompat/clean tree asserts silence against a
// committed, matching fingerprint.
func TestModuleAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
		wantAny  bool
	}{
		{"lockorder", "lockorder", true},
		{"hotpathalloc", "hotpathalloc", true},
		{"errdrop", "errdrop", true},
		{"snapshotcompat/clean", "snapshotcompat", false},
		{"snapshotcompat/unbumped", "snapshotcompat", true},
		{"snapshotcompat/stale", "snapshotcompat", true},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			prog := loadProgram(t, tc.fixture)
			analyzers, err := ByName([]string{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			wants := progWants(t, prog)
			if tc.wantAny && len(wants) == 0 {
				t.Fatalf("fixture %s has no want annotations", tc.fixture)
			}
			matchWants(t, prog.Run(analyzers), wants)
		})
	}
}

// TestSnapshotFixCarriesRegeneration checks that the stale fixture's
// finding ships a whole-file fix regenerating the fingerprint.
func TestSnapshotFixCarriesRegeneration(t *testing.T) {
	prog := loadProgram(t, "snapshotcompat/stale")
	analyzers, _ := ByName([]string{"snapshotcompat"})
	diags := prog.Run(analyzers)
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %d: %v", len(diags), diags)
	}
	fix := diags[0].Fix
	if fix == nil || fix.End != -1 || fix.NewText == "" {
		t.Fatalf("stale fingerprint finding should carry a whole-file fix, got %+v", fix)
	}
	if recordedVersion(fix.NewText) != "2" {
		t.Errorf("regenerated fingerprint should record model-version 2, got %q", recordedVersion(fix.NewText))
	}
}

// TestErrDropFix checks the errdrop fix inserts arity-matched blanks.
func TestErrDropFix(t *testing.T) {
	prog := loadProgram(t, "errdrop")
	analyzers, _ := ByName([]string{"errdrop"})
	fixes := map[string]bool{}
	for _, d := range prog.Run(analyzers) {
		if d.Fix != nil {
			fixes[d.Fix.NewText] = true
		}
	}
	if !fixes["_ = "] {
		t.Error("missing single-result `_ = ` fix")
	}
	if !fixes["_, _ = "] {
		t.Error("missing two-result `_, _ = ` fix")
	}
}

// TestCallGraphEdges sanity-checks the graph builder on the lockorder
// fixture: a static edge, a flow edge through a package-level func var,
// and closure nodes.
func TestCallGraphEdges(t *testing.T) {
	prog := loadProgram(t, "lockorder")
	g := prog.Graph()

	find := func(name string) *FuncNode {
		t.Helper()
		for _, n := range g.Nodes {
			if n.Name == name {
				return n
			}
		}
		t.Fatalf("no node %q in call graph", name)
		return nil
	}

	reacquire := find("lockorder.reacquire")
	var static bool
	for _, c := range reacquire.Calls {
		if c.Callee.Name == "lockorder.lockR" && c.Kind == EdgeStatic {
			static = true
		}
	}
	if !static {
		t.Error("missing static edge reacquire -> lockR")
	}

	viaHook := find("lockorder.dViaHook")
	var flow bool
	for _, c := range viaHook.Calls {
		if c.Callee.Name == "lockorder.lockC" && c.Kind == EdgeFlow {
			flow = true
		}
	}
	if !flow {
		t.Error("missing flow edge dViaHook -> lockC through the hook func var")
	}

	spawned := find("lockorder.spawned")
	var closure bool
	for _, c := range spawned.Calls {
		if c.Kind == EdgeClosure {
			closure = true
		}
	}
	if !closure {
		t.Error("missing closure edge from spawned to its goroutine literal")
	}
}
