package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/tpch"
)

func TestRunWorkloadTPCHSmall(t *testing.T) {
	cfg := Config{Scales: []float64{0.3}, Runs: 1, Workers: 4}
	env, err := NewEnv("tpch", 0.3, 2021, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 22 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	for _, q := range res.Queries {
		if !q.Agree {
			t.Errorf("%s: engines disagree", q.ID)
		}
		if q.Times["tag"] <= 0 || q.Times["refdb"] <= 0 {
			t.Errorf("%s: missing timings", q.ID)
		}
	}
	var buf bytes.Buffer
	PrintPerQuery(&buf, res)
	PrintAggregate(&buf, []WorkloadResult{res})
	PrintByClass(&buf, res)
	PrintWinCounts(&buf, res)
	PrintSelected(&buf, res, "Table 3", []string{"q3", "q4", "q5", "q10", "q2", "q17", "q20", "q21"})
	out := buf.String()
	for _, want := range []string{"Figure 13", "Figure 15", "Table 5", "TOTAL", "q21"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestRunWorkloadFlagsWrongTAGAnswers: the agree column must judge TAG
// too. With the TAG session swapped for one over a graph generated from
// a different seed, TAG's answers are wrong while the baselines still
// agree with each other, so some query must report disagreement.
func TestRunWorkloadFlagsWrongTAGAnswers(t *testing.T) {
	env, err := NewEnv("tpch", 0.1, 2021, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := tag.Build(tpch.Generate(0.1, 99), nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Exec = core.NewSession(other, bsp.Options{Workers: 1})
	res, err := RunWorkload(Config{Runs: 1}, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range res.Queries {
		if !q.Agree {
			return
		}
	}
	t.Errorf("all %d queries report agreement although TAG ran on a different graph", len(res.Queries))
}

func TestRunWorkloadTPCDSSmall(t *testing.T) {
	cfg := Config{Runs: 1, Workers: 4}
	env, err := NewEnv("tpcds", 0.2, 2021, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 25 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	for _, q := range res.Queries {
		if !q.Agree {
			t.Errorf("%s: engines disagree", q.ID)
		}
	}
	byClass := res.ByClass()
	for _, c := range []string{"noagg", "local", "global", "scalar"} {
		if len(byClass[c]) == 0 {
			t.Errorf("class %s missing from breakdown", c)
		}
	}
}

func TestMeasureLoad(t *testing.T) {
	res, err := MeasureLoad("tpch", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TAGBytes <= 0 || res.RowBytes <= res.RawBytes {
		t.Errorf("sizes wrong: %+v", res)
	}
	if res.TAGLoad <= 0 || res.RowLoad <= 0 {
		t.Error("load times missing")
	}
	var buf bytes.Buffer
	PrintLoad(&buf, []LoadResult{res})
	if !strings.Contains(buf.String(), "Figure 14") {
		t.Error("load report malformed")
	}
}

func TestRunDistributedSmall(t *testing.T) {
	cfg := Config{Runs: 1, Machines: 6}
	res, err := RunDistributed(cfg, "tpch", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagTraffic == 0 || res.ShuffleTraffic == 0 {
		t.Errorf("traffic missing: %+v", res)
	}
	var buf bytes.Buffer
	PrintDistributed(&buf, res)
	if !strings.Contains(buf.String(), "Figure 16") {
		t.Error("distributed report malformed")
	}
}

func TestPeakRAM(t *testing.T) {
	peak, err := PeakRAM(func() error {
		buf := make([]byte, 8<<20)
		_ = buf[0]
		return nil
	})
	if err != nil || peak <= 0 {
		t.Errorf("peak=%d err=%v", peak, err)
	}
}
