package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// series is one metric of one workload over a directory's runs.
type series struct {
	values []float64
	seeds  []int64
}

type seriesKey struct{ workload, metric string }

// loadResults reads every result file in dir. A file whose run was not
// correct is reported, since its numbers measure something else.
func loadResults(dir string) (map[seriesKey]*series, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("%s: no result files", dir)
	}
	out := make(map[seriesKey]*series)
	var bad []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct || r.Failed > 0 {
			bad = append(bad, p)
		}
		for name, v := range r.Metrics {
			k := seriesKey{r.Workload, name}
			s := out[k]
			if s == nil {
				s = &series{}
				out[k] = s
			}
			s.values = append(s.values, v)
			s.seeds = append(s.seeds, r.Env.Seed)
		}
	}
	return out, bad, nil
}

// verdict judges B against A for one end-to-end metric:
//   - unresolved when either side's quartile spread exceeds the bound,
//     unless every run of B reads better than every run of A;
//   - worse when B's median is worse than A's by more than the bound;
//   - better when B's median beats A's by more than A's own quartile spread
//     and B wins at least nine tenths of the runs paired by seed (all
//     cross pairs when the seeds differ);
//   - unchanged otherwise.
func verdict(def metricDef, a, b *series) string {
	medA, medB := median(a.values), median(b.values)
	sign := 1.0 // > 0 means B is worse
	if def.Better == "higher" {
		sign = -1
	}
	worse := sign * (medB - medA) / math.Abs(medA)
	allBetter := true
	for _, x := range a.values {
		for _, y := range b.values {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case (spread(a.values) > def.Bound || spread(b.values) > def.Bound) && !allBetter:
		return "unresolved"
	case worse > def.Bound:
		return "worse"
	case -worse > spread(a.values) && pairWins(sign, a, b) >= 0.9:
		return "better"
	default:
		return "unchanged"
	}
}

// pairWins is the share of paired runs in which B reads better than A;
// ties count for neither side.
func pairWins(sign float64, a, b *series) float64 {
	wins, pairs := 0, 0
	bySeed := samePairing(a, b)
	for i, x := range a.values {
		for j, y := range b.values {
			if bySeed && a.seeds[i] != b.seeds[j] {
				continue
			}
			pairs++
			if sign*(y-x) < 0 {
				wins++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}

// samePairing reports whether A and B ran the same set of seeds, so runs
// pair one to one.
func samePairing(a, b *series) bool {
	if len(a.seeds) != len(b.seeds) {
		return false
	}
	x := append([]int64(nil), a.seeds...)
	y := append([]int64(nil), b.seeds...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// compareDirs prints, per workload and metric, each side's median and
// quartiles and a verdict, and exits nonzero on a regression or on a run
// that was not correct.
func compareDirs(dirA, dirB string, stdout, stderr io.Writer) int {
	a, badA, err := loadResults(dirA)
	if err != nil {
		fmt.Fprintf(stderr, "hombench: %v\n", err)
		return 2
	}
	b, badB, err := loadResults(dirB)
	if err != nil {
		fmt.Fprintf(stderr, "hombench: %v\n", err)
		return 2
	}
	defs := make(map[string]metricDef)
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	var keys []seriesKey
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	code := 0
	fmt.Fprintln(stdout, "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | change | bound | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|")
	for _, k := range keys {
		sa, sb := a[k], b[k]
		medA, medB := median(sa.values), median(sb.values)
		v, bound := "—", "—"
		if def, ok := defs[k.metric]; ok {
			v = verdict(def, sa, sb)
			bound = fmt.Sprintf("%.0f%%", def.Bound*100)
			if v == "worse" {
				code = 1
			}
		}
		fmt.Fprintf(stdout, "| %s | %s (%s) | %s | %s | %+.1f%% | %s | %s |\n",
			k.workload, k.metric, unitOf(k.metric), describe(sa.values), describe(sb.values),
			(medB-medA)/math.Abs(medA)*100, bound, v)
	}
	for _, p := range append(badA, badB...) {
		fmt.Fprintf(stderr, "hombench: %s: run was not correct or had failed ops\n", p)
		code = 1
	}
	return code
}

func describe(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q[1], q[0], q[2], len(xs))
}
