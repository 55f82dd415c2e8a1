package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a change may lose; 0 for per-layer metrics
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload. What "one unit of work" is per
// workload is fixed in README.md.
//
// The bounds are what this machine's run-to-run spread supports, not the
// 10% the issue asked for: README.md gives the measured spreads. A tail
// latency is reported by every run as the informational tail_ms but is
// not in this list, because its spread (12-37% of the median over ten
// seeds) is wider than any bound the contract allows.
var endToEnd = []metricDef{
	{"op_ms", "ms", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = package name),
// reported by the traced run of every workload from probes that drive
// each layer's public functions with that workload's own inputs.
var perLayer = []metricDef{
	{"sql.prepare_us", "us", "lower", 0},
	{"core.run_ms", "ms", "lower", 0},
	{"core.fixed_us", "us", "lower", 0},
	{"core.first_run_ms", "ms", "lower", 0},
	{"core.allocs_per_query", "count", "lower", 0},
	{"bsp.supersteps", "count", "lower", 0},
	{"bsp.messages", "count", "lower", 0},
	{"bsp.message_bytes", "B", "lower", 0},
	{"bsp.combined_ratio", "ratio", "higher", 0},
	{"bsp.merge_share", "ratio", "lower", 0},
	{"bsp.peak_inbox_bytes", "B", "lower", 0},
	{"bsp.worker_speedup", "ratio", "higher", 0},
	{"bsp.partition_tax", "ratio", "lower", 0},
	{"bsp.network_bytes", "B", "lower", 0},
	{"tag.build_s", "s", "lower", 0},
	{"tag.bytes_per_user_byte", "ratio", "lower", 0},
	{"tag.clone_ms", "ms", "lower", 0},
	{"tag.insert_rows_per_s", "1/s", "higher", 0},
	{"tag.snapshot_mb_per_s", "MB/s", "higher", 0},
	{"serve.dispatch_hit_us", "us", "lower", 0},
	{"serve.dispatch_miss_us", "us", "lower", 0},
	{"serve.prepared_hit_ratio", "ratio", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.write_rows_per_s", "1/s", "higher", 0},
	{"serve.coalesce_ratio", "ratio", "higher", 0},
	{"serve.fold_ratio", "ratio", "higher", 0},
	{"serve.generations_live_max", "count", "lower", 0},
	{"proto.wire_us", "us", "lower", 0},
	{"http.wire_us", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.replay_records_per_s", "1/s", "higher", 0},
	{"checkpoint.write_ms", "ms", "lower", 0},
	{"checkpoint.load_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"checkpoint.stall_ms", "ms", "lower", 0},
	{"baseline.tag_pass_ms", "ms", "lower", 0},
	{"baseline.refdb_pass_ms", "ms", "lower", 0},
	{"baseline.refdb_col_pass_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.self_sum_ratio", "ratio", "higher", 0},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one metric of one run in the result file.
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Better string  `json:"better"`
}

// report is the result file of one run: where it ran, what it ran, and
// every metric by name. Metrics holds the contract metrics of the run's
// mode (end-to-end when untraced, per-layer when traced); Info holds
// named numbers that explain them and are never gated.
type report struct {
	Env       envBlock       `json:"env"`
	Workload  string         `json:"workload"`
	Why       string         `json:"why"`
	Seed      int64          `json:"seed"`
	Trace     bool           `json:"trace"`
	Seconds   float64        `json:"seconds"`
	Constants map[string]any `json:"constants"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Correct   bool           `json:"correct"`
	Failures  []string       `json:"failures,omitempty"`
	Metrics   []metricValue  `json:"metrics"`
	Info      []metricValue  `json:"info,omitempty"`
}

// defs is the contract list of the run's mode.
func (r *report) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// metric records a contract metric from its samples (one sample for a
// value measured once per run). Only the workload's own goroutine
// records, so a report needs no lock.
func (r *report) metric(name string, samples ...float64) {
	d, ok := findDef(r.defs(), name)
	if !ok {
		panic("benchmark: metric " + name + " is not defined for this mode")
	}
	r.Metrics = append(r.Metrics, toValue(d.Name, d.Unit, d.Better, samples))
}

// info records a named number outside the contract lists.
func (r *report) info(name, unit, better string, samples ...float64) {
	r.Info = append(r.Info, toValue(name, unit, better, samples))
}

func toValue(name, unit, better string, samples []float64) metricValue {
	s := summarize(samples)
	return metricValue{Name: name, Unit: unit, N: s.N, Median: s.Median, Q1: s.Q1, Q3: s.Q3, Better: better}
}

// missing lists the contract metrics of the run's mode that were never
// recorded; a run that leaves one out is a broken run, not a result.
func (r *report) missing() []string {
	have := map[string]bool{}
	for _, m := range r.Metrics {
		have[m.Name] = true
	}
	var out []string
	for _, d := range r.defs() {
		if !have[d.Name] {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes every metric by name with unit, n, median and quartiles.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: attempted %d failed %d correct %v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	row := func(m metricValue) {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%-6d q1=%.4f q3=%.4f (%s is better)\n",
			m.Name, m.Median, m.Unit, m.N, m.Q1, m.Q3, m.Better)
	}
	for _, m := range r.Metrics {
		row(m)
	}
	if len(r.Info) > 0 {
		fmt.Fprintln(w, " informational:")
		info := append([]metricValue(nil), r.Info...)
		sort.SliceStable(info, func(a, b int) bool { return info[a].Name < info[b].Name })
		for _, m := range info {
			row(m)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILURE:", f)
	}
}

func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the driver-facing result: the last line of standard
// output.
func (r *report) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Median, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// checker counts attempted and failed operations across goroutines and
// keeps the first few failure messages for the report.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	messages  []string
}

// ok counts one attempted operation and, when cond is false, one failure.
func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		if len(c.messages) < 10 {
			c.messages = append(c.messages, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// add folds a goroutine's private tallies in.
func (c *checker) add(attempted, failed int64, firstFailure string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += attempted
	c.failed += failed
	if firstFailure != "" && len(c.messages) < 10 {
		c.messages = append(c.messages, firstFailure)
	}
}

func (c *checker) into(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Attempted, r.Failed = c.attempted, c.failed
	r.Correct = c.failed == 0 && c.attempted > 0
	r.Failures = c.messages
}
