package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// ciRun holds the result of the CI invocation (`go run ./cmd/homlint
// ./...`) over this repository, run once for the tests that check it.
var ciRun struct {
	once           sync.Once
	code           int
	stdout, stderr string
}

func runCI(t *testing.T) (code int, stdout, stderr string) {
	t.Helper()
	root := moduleRoot(t)
	ciRun.once.Do(func() {
		var out, errOut bytes.Buffer
		ciRun.code = run([]string{root + "/..."}, &out, &errOut)
		ciRun.stdout, ciRun.stderr = out.String(), errOut.String()
	})
	return ciRun.code, ciRun.stdout, ciRun.stderr
}

// TestRepoIsClean is the dogfood gate and mirrors the CI invocation: the
// analyzer suite must run clean over this repository itself. Any new
// violation must either be fixed or carry a justified //homlint:allow
// directive.
func TestRepoIsClean(t *testing.T) {
	if code, stdout, stderr := runCI(t); code != 0 {
		t.Fatalf("homlint found violations in this repository (exit %d):\n%s%s", code, stdout, stderr)
	}
}

// TestRepoCleanAgainstCommittedBaseline checks the repository against the
// lint baseline it commits, which is empty: there is no findings ledger,
// and the only accepted exceptions are //homlint:allow directives next to
// their code. lint/ must hold no baseline.json, since homlint reads none
// and its entries would suppress nothing, and the CI invocation must print
// nothing on stdout or stderr.
func TestRepoCleanAgainstCommittedBaseline(t *testing.T) {
	ledger := filepath.Join(moduleRoot(t), "lint", "baseline.json")
	if _, err := os.Stat(ledger); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("%s is committed (stat: %v); homlint reads no ledger, so it would suppress nothing", ledger, err)
	}
	if code, stdout, stderr := runCI(t); code != 0 || stdout != "" || stderr != "" {
		t.Fatalf("CI invocation not clean (exit %d):\n%s%s", code, stdout, stderr)
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
	for _, finding := range []string{"[determinism] call to time.Now", "[determinism] rand.NewSource seeded from os.Getpid", "[floatcmp]"} {
		if !strings.Contains(stdout.String(), finding) {
			t.Errorf("no %q finding in CLI output", finding)
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
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "determinism floatcmp spanend tracectx sleeploop lockorder hotpathalloc snapshotcompat errdrop"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names %q, want %q", got, want)
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
