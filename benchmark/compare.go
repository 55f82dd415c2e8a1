package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadReports reads one result file, or every *.json result file of a
// directory (trace dumps, which are not results, are skipped).
func loadReports(path string) ([]*report, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*report
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "trace-") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || len(r.Metrics) == 0 {
			return nil, fmt.Errorf("%s: not a benchmark result file", f)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// side is one (workload, metric) pair on one side of a comparison.
type side struct {
	unit, better string
	values       []float64 // each run's median, in file order
	sum          summary
	runs         []metricValue
}

type pairKey struct {
	workload string
	traced   bool
	metric   string
}

func collect(reports []*report) map[pairKey]*side {
	out := map[pairKey]*side{}
	for _, r := range reports {
		for _, m := range r.Metrics {
			k := pairKey{r.Workload, r.Trace, m.Name}
			s := out[k]
			if s == nil {
				s = &side{unit: m.Unit, better: m.Better}
				out[k] = s
			}
			s.values = append(s.values, m.Median)
			s.runs = append(s.runs, m)
		}
	}
	for _, s := range out {
		s.sum = summarize(s.values)
		if len(s.runs) == 1 {
			// A single run has no run-to-run spread; its own quartiles
			// are the best available stand-in.
			s.sum.Q1, s.sum.Q3 = s.runs[0].Q1, s.runs[0].Q3
		}
	}
	return out
}

// row is one line of the comparison.
type row struct {
	key       pairKey
	base, new *side
	ratio     float64 // new median / base median
	worse     float64 // share of the base by which new is worse (negative: better)
	bound     float64
	verdict   string
}

// judge classifies one pair. A gated metric is regressed when it got
// worse by more than its bound, unresolved when it did not but either
// side's run-to-run spread is wider than the bound (the runs cannot tell
// a regression of that size from noise), ok otherwise. Per-layer
// metrics have no bound: counts of the engine's cost model must repeat
// exactly, everything else is reported as is.
func judge(k pairKey, base, new *side) row {
	r := row{key: k, base: base, new: new, ratio: new.sum.Median / base.sum.Median}
	r.worse = r.ratio - 1
	if base.better == "higher" {
		r.worse = 1 - r.ratio
	}
	def, gated := findDef(endToEnd, k.metric)
	switch {
	case gated && !k.traced:
		r.bound = def.Bound
		switch {
		case r.worse > r.bound:
			r.verdict = "regressed"
		case base.sum.spread() > r.bound || new.sum.spread() > r.bound:
			r.verdict = "unresolved"
		default:
			r.verdict = "ok"
		}
	case exactCounts[k.metric]:
		r.verdict = "same"
		if !equalSorted(base.values, new.values) {
			r.verdict = "differs"
		}
	default:
		r.verdict = "info"
	}
	return r
}

// exactCounts are the engine's cost-model counters. They count work, not
// time, so two sets of runs with the same seeds must agree on them to
// the last digit.
var exactCounts = map[string]bool{
	"bsp.supersteps": true, "bsp.messages": true, "bsp.message_bytes": true, "bsp.network_bytes": true,
}

func equalSorted(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedCopy(a), sortedCopy(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareSets builds one row per (workload, metric) present on both
// sides, end-to-end metrics first.
func compareSets(base, new []*report) []row {
	b, n := collect(base), collect(new)
	var rows []row
	for k, bs := range b {
		if ns, ok := n[k]; ok {
			rows = append(rows, judge(k, bs, ns))
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, c := rows[i].key, rows[j].key
		if a.traced != c.traced {
			return !a.traced
		}
		if a.workload != c.workload {
			return a.workload < c.workload
		}
		return a.metric < c.metric
	})
	return rows
}

func runCompare(basePath, newPath string, stdout, stderr io.Writer) int {
	var sets [2][]*report
	for i, path := range []string{basePath, newPath} {
		reports, err := loadReports(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: compare:", err)
			return 2
		}
		sets[i] = reports
	}
	rows := compareSets(sets[0], sets[1])
	printRows(stdout, rows)
	for _, r := range rows {
		if r.verdict == "regressed" || r.verdict == "differs" {
			return 1
		}
	}
	return 0
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-12s %-26s %-6s | %12s %12s %12s %3s | %12s %12s %12s %3s | %-20s %6s  %s\n",
		"workload", "metric", "unit", "base median", "q1", "q3", "n", "new median", "q1", "q3", "n", "new/base", "bound", "verdict")
	for _, r := range rows {
		bound := "-"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		fmt.Fprintf(w, "%-12s %-26s %-6s | %12.4f %12.4f %12.4f %3d | %12.4f %12.4f %12.4f %3d | %-20s %6s  %s\n",
			r.key.workload, r.key.metric, r.base.unit,
			r.base.sum.Median, r.base.sum.Q1, r.base.sum.Q3, r.base.sum.N,
			r.new.sum.Median, r.new.sum.Q1, r.new.sum.Q3, r.new.sum.N,
			fmt.Sprintf("%.4f of %.4g", r.ratio, r.base.sum.Median), bound, r.verdict)
	}
}
