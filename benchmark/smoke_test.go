package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload, untraced and traced, at
// tiny scale with one-second windows, through the same entry point the
// driver uses, and holds the last line of output to the contract.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for a second each, twice")
	}
	t.Setenv("TMPDIR", t.TempDir())
	outdir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"-smoke", "-outdir", outdir, "--workload", w.name,
					"--seed", "7", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", got.Correct, got.Attempted, got.Failed, stdout.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := got.Metrics[d.Name]
					if !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("metric %s missing or in the wrong unit: %+v", d.Name, m)
					}
				}
				if trace == "1" {
					if _, err := os.Stat(filepath.Join(outdir, "trace-"+w.name+".json")); err != nil {
						t.Errorf("no span dump: %v", err)
					}
				}
			})
		}
	}
	var out, errOut bytes.Buffer
	if code := runCompare(outdir, outdir, &out, &errOut); code != 0 {
		t.Errorf("comparing the smoke results with themselves exits %d: %s%s", code, out.String(), errOut.String())
	}
}

func TestBadArgumentsExitNonZeroWithoutAResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tpch_ga", "--trace", "2"},
		{"--workload", "tpch_ga", "--seconds", "0"},
		{"-compare", "only-one"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
