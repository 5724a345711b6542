package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the dogfood gate: the analyzer suite must run clean
// over this repository itself. Any new violation must either be fixed or
// carry a justified //homlint:allow directive.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{moduleRoot(t) + "/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("homlint found violations in this repository (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestFindsSeededViolations runs the CLI over the analyzer fixtures and
// checks it exits nonzero with findings from every analyzer.
func TestFindsSeededViolations(t *testing.T) {
	root := moduleRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{filepath.Join(root, "internal", "analysis", "testdata", "determinism"),
		filepath.Join(root, "internal", "analysis", "testdata", "seedplumb"),
		filepath.Join(root, "internal", "analysis", "testdata", "floatcmp")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("want exit 1 on seeded violations, got %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, name := range []string{"determinism", "seedplumb", "floatcmp"} {
		if !strings.Contains(stdout.String(), "["+name+"]") {
			t.Errorf("no %s finding in CLI output", name)
		}
	}
}

// TestEnableFilter checks -enable restricts the suite.
func TestEnableFilter(t *testing.T) {
	root := moduleRoot(t)
	fixture := filepath.Join(root, "internal", "analysis", "testdata", "determinism")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-enable", "floatcmp", fixture}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("floatcmp alone should pass the determinism fixture, got exit %d:\n%s", code, stdout.String())
	}
	if code := run([]string{"-enable", "bogus", fixture}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer should exit 2, got %d", code)
	}
}

// TestListAnalyzers checks -list names the full suite.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"determinism", "seedplumb", "floatcmp"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

// TestFindsSeededModuleViolations runs the CLI over the flow-aware
// analyzer fixtures as module trees (the `/...` form that builds the call
// graph) and checks each seeded violation class fails the run.
func TestFindsSeededModuleViolations(t *testing.T) {
	root := moduleRoot(t)
	cases := []struct {
		fixture  string
		analyzer string
	}{
		{"lockorder", "lockorder"},
		{"hotpathalloc", "hotpathalloc"},
		{"errdrop", "errdrop"},
		{filepath.Join("snapshotcompat", "unbumped"), "snapshotcompat"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			target := filepath.Join(root, "internal", "analysis", "testdata", tc.fixture) + "/..."
			var stdout, stderr bytes.Buffer
			code := run([]string{"-enable", tc.analyzer, target}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("want exit 1 on seeded %s violations, got %d\n%s%s",
					tc.analyzer, code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), "["+tc.analyzer+"]") {
				t.Errorf("no %s finding in CLI output:\n%s", tc.analyzer, stdout.String())
			}
		})
	}
}

// TestBaselineRoundTrip writes a baseline over a violating fixture and
// checks the same run passes against it, while a clean target reports the
// now-stale entries.
func TestBaselineRoundTrip(t *testing.T) {
	root := moduleRoot(t)
	target := filepath.Join(root, "internal", "analysis", "testdata", "errdrop") + "/..."
	baseline := filepath.Join(t.TempDir(), "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-enable", "errdrop", "-write-baseline", baseline, target}, &stdout, &stderr); code != 0 {
		t.Fatalf("-write-baseline exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-enable", "errdrop", "-baseline", baseline, target}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined findings should pass, got exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}

	// The same baseline against a clean tree is entirely stale.
	clean := filepath.Join(root, "internal", "analysis", "testdata", "lockorder") + "/..."
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-enable", "errdrop", "-baseline", baseline, clean}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean tree with stale baseline should exit 0, got %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "stale") {
		t.Errorf("stale baseline entries not reported on stderr:\n%s", stderr.String())
	}
}

// TestSARIFOutput checks -sarif writes a parseable SARIF log with one
// result per finding.
func TestSARIFOutput(t *testing.T) {
	root := moduleRoot(t)
	target := filepath.Join(root, "internal", "analysis", "testdata", "errdrop") + "/..."
	sarif := filepath.Join(t.TempDir(), "out", "homlint.sarif")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-enable", "errdrop", "-sarif", sarif, target}, &stdout, &stderr); code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version %q, %d runs", log.Version, len(log.Runs))
	}
	if len(log.Runs[0].Results) == 0 {
		t.Fatal("SARIF log has no results for a violating fixture")
	}
	for _, r := range log.Runs[0].Results {
		if r.RuleID != "errdrop" {
			t.Errorf("unexpected ruleId %q", r.RuleID)
		}
	}
}

// TestJSONOutput checks -json emits a machine-readable finding list.
func TestJSONOutput(t *testing.T) {
	root := moduleRoot(t)
	target := filepath.Join(root, "internal", "analysis", "testdata", "errdrop") + "/..."
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-enable", "errdrop", "-json", target}, &stdout, &stderr); code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("no findings in JSON output")
	}
	for _, f := range findings {
		if f.Analyzer != "errdrop" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}
}

// TestRepoCleanAgainstCommittedBaseline mirrors the CI invocation exactly:
// the committed baseline plus parallel module analysis must pass, and the
// committed baseline must not carry stale entries.
func TestRepoCleanAgainstCommittedBaseline(t *testing.T) {
	root := moduleRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-baseline", filepath.Join(root, "lint", "baseline.json"), root + "/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("CI invocation failed (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stderr.String(), "stale") {
		t.Errorf("committed baseline has stale entries:\n%s", stderr.String())
	}
}
