package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seriesOf(vals ...float64) *series {
	s := &series{}
	for i, v := range vals {
		s.values = append(s.values, v)
		s.seeds = append(s.seeds, int64(i+1))
	}
	return s
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "records_per_s", Better: "higher", Bound: 0.1}
	steady := seriesOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b *series
		want string
	}{
		{"same numbers", lower, steady, steady, "unchanged"},
		{"within bound", lower, steady, seriesOf(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), "unchanged"},
		{"slower beyond bound", lower, steady, seriesOf(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "worse"},
		{"faster beyond spread", lower, steady, seriesOf(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), "better"},
		{"throughput drop", higher, steady, seriesOf(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "worse"},
		{"throughput gain", higher, steady, seriesOf(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), "better"},
		{"noisy side", lower, steady, seriesOf(60, 140, 100, 70, 130, 100, 80, 120, 90, 110), "unresolved"},
		{"noisy but every run better", lower, seriesOf(200, 300, 250, 220, 280), seriesOf(100, 150, 120, 130, 110), "better"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func writeResults(t *testing.T, dir string, values map[string][]float64, correct bool) {
	t.Helper()
	for i := 0; i < len(values["records_per_s"]); i++ {
		r := result{Workload: wBulkBinary, Correct: correct, Metrics: map[string]float64{}}
		r.Env.Seed = int64(i + 1)
		for name, vs := range values {
			r.Metrics[name] = vs[i]
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	base := map[string][]float64{
		"records_per_s": {100, 101, 99, 100, 102},
		"op_p50_ms":     {1.0, 1.01, 0.99, 1.0, 1.02},
	}
	regressed := map[string][]float64{
		"records_per_s": {70, 71, 69, 70, 72},
		"op_p50_ms":     {1.0, 1.01, 0.99, 1.0, 1.02},
	}
	for _, tc := range []struct {
		name     string
		b        map[string][]float64
		correctB bool
		code     int
		verdict  string
	}{
		{"no change", base, true, 0, "unchanged"},
		{"regression", regressed, true, 1, "worse"},
		{"incorrect run", base, false, 1, "unchanged"},
	} {
		dirA, dirB := t.TempDir(), t.TempDir()
		writeResults(t, dirA, base, true)
		writeResults(t, dirB, tc.b, tc.correctB)
		var out, errOut bytes.Buffer
		if code := compareDirs(dirA, dirB, &out, &errOut); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errOut.String())
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "records_per_s") {
				line = l
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(line), "| "+tc.verdict+" |") {
			t.Errorf("%s: records_per_s row %q, want verdict %s", tc.name, line, tc.verdict)
		}
	}
}
