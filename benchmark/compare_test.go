package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runs makes one untraced result per value of a single metric.
func runs(workload, metric string, values ...float64) []*report {
	def, _ := findDef(endToEnd, metric)
	var out []*report
	for _, v := range values {
		out = append(out, &report{Workload: workload, Metrics: []metricValue{
			{Name: metric, Unit: def.Unit, Better: def.Better, N: 1, Median: v, Q1: v, Q3: v}}})
	}
	return out
}

func verdictOf(t *testing.T, base, fresh []*report) row {
	t.Helper()
	rows := compareSets(base, fresh)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	return rows[0]
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 150, 50, 100, 160, 40, 100, 145, 55, 100}
	cases := []struct {
		name    string
		metric  string
		base    []float64
		fresh   []float64
		verdict string
	}{
		{"same", "op_ms", steady, steady, "ok"},
		{"15% slower is inside a 25% bound", "op_ms", steady, scale(1.15), "ok"},
		{"30% slower is outside it", "op_ms", steady, scale(1.30), "regressed"},
		{"faster is never a regression", "op_ms", steady, scale(0.5), "ok"},
		{"higher is better: 30% fewer queries per second", "qps", steady, scale(0.70), "regressed"},
		{"higher is better: 30% more", "qps", steady, scale(1.30), "ok"},
		{"spread wider than the bound cannot be called unchanged", "op_ms", noisy, noisy, "unresolved"},
		{"a regression shows through noise on the other side", "op_ms", steady, scale(1.4), "regressed"},
		{"peak_rss_mb has the narrower bound: 22% more", "peak_rss_mb", steady, scale(1.22), "regressed"},
		{"22% more is inside op_ms's", "op_ms", steady, scale(1.22), "ok"},
	}
	for _, c := range cases {
		r := verdictOf(t, runs("tpch_ga", c.metric, c.base...), runs("tpch_ga", c.metric, c.fresh...))
		if r.verdict != c.verdict {
			t.Errorf("%s: verdict %s (ratio %.3f, worse %.3f, bound %.2f), want %s", c.name, r.verdict, r.ratio, r.worse, r.bound, c.verdict)
		}
	}
}

func TestCompareSingleRunsUseTheirOwnQuartiles(t *testing.T) {
	one := func(median, q1, q3 float64) []*report {
		return []*report{{Workload: "serve_read", Metrics: []metricValue{
			{Name: "op_ms", Unit: "ms", Better: "lower", N: 500, Median: median, Q1: q1, Q3: q3}}}}
	}
	if r := verdictOf(t, one(10, 9.9, 10.1), one(10.2, 10.1, 10.3)); r.verdict != "ok" {
		t.Errorf("tight single runs: %s", r.verdict)
	}
	if r := verdictOf(t, one(10, 8, 12), one(10.2, 10.1, 10.3)); r.verdict != "unresolved" {
		t.Errorf("a single run with wide quartiles: %s", r.verdict)
	}
}

func TestCompareExactCountsAndRowsPerWorkload(t *testing.T) {
	traced := func(workload string, supersteps, run float64) *report {
		return &report{Workload: workload, Trace: true, Metrics: []metricValue{
			{Name: "bsp.supersteps", Unit: "count", Better: "lower", N: 1, Median: supersteps},
			{Name: "core.run_ms", Unit: "ms", Better: "lower", N: 3, Median: run},
		}}
	}
	base := []*report{traced("tpch_ga", 684, 900), traced("tpch_join", 132, 300)}
	fresh := []*report{traced("tpch_ga", 684, 2000), traced("tpch_join", 133, 300)}
	got := map[string]string{}
	for _, r := range compareSets(base, fresh) {
		got[r.key.workload+" "+r.key.metric] = r.verdict
	}
	want := map[string]string{
		"tpch_ga bsp.supersteps":   "same",
		"tpch_ga core.run_ms":      "info", // per-layer times are never gated
		"tpch_join bsp.supersteps": "differs",
		"tpch_join core.run_ms":    "info",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s", k, got[k], v)
		}
	}
}

func TestCompareCommandReadsFilesAndDirectories(t *testing.T) {
	dir := t.TempDir()
	write := func(sub, name string, r *report) string {
		path := filepath.Join(dir, sub, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for i, r := range runs("tpch_ga", "op_ms", 100, 101, 99) {
		write("a", string(rune('0'+i))+".json", r)
	}
	for i, r := range runs("tpch_ga", "op_ms", 150, 151, 149) {
		write("b", string(rune('0'+i))+".json", r)
	}
	var out, errOut bytes.Buffer
	if code := runCompare(filepath.Join(dir, "a"), filepath.Join(dir, "a"), &out, &errOut); code != 0 {
		t.Errorf("a set against itself exits %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := runCompare(filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out, &errOut); code != 1 {
		t.Errorf("a 50%% regression exits %d, want 1", code)
	}
	for _, want := range []string{"tpch_ga", "op_ms", "regressed", "25%", "1.5000 of 100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	single := filepath.Join(dir, "a", "0.json")
	if code := runCompare(single, single, &out, &errOut); code != 0 {
		t.Errorf("a file against itself exits %d", code)
	}
	if code := runCompare(filepath.Join(dir, "missing"), single, &out, &errOut); code != 2 {
		t.Errorf("a missing path exits %d, want 2", code)
	}
}
