// Command benchmark is the repository's benchmark: four named workloads
// with end-to-end metrics (untraced run) and per-layer metrics (traced
// run), every answer checked. README.md in this directory says what is
// measured and why; BENCHMARK.json at the repository root is the
// contract the driver runs it by.
//
//	bash benchmark/run.sh --workload tpch_ga --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --compare benchmark/out/setA benchmark/out/setB
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(runConfig, *report, *checker) error
}

var workloads = []workload{
	{"tpch_ga", "TPC-H global and scalar aggregation queries: the global aggregator, aggregator-vertex and combiner path does almost all the work",
		func(cfg runConfig, r *report, c *checker) error { return runTPCH("ga", cfg, r, c) }},
	{"tpch_join", "TPC-H local- and no-aggregation queries on the same graph: reduction and collection traversals dominate and the global aggregator is bypassed",
		func(cfg runConfig, r *report, c *checker) error { return runTPCH("join", cfg, r, c) }},
	{"serve_read", "short statements over the binary protocol with more distinct statements than the prepared cache holds: parsing, cache, pool and wire carry the cost, the engine almost none",
		runServeRead},
	{"serve_write", "one HTTP writer beside one reader on a durable server: clone, publish, WAL, checkpoint and delta-fold run while pooled sessions read, then the server restarts from disk",
		runServeWrite},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tpch_ga, tpch_join, serve_read or serve_write")
	seed := fs.Int64("seed", 2021, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run with the per-layer metrics")
	out := fs.String("out", "", "result file (default <outdir>/<workload>-seed<seed>[-trace].json)")
	outdir := fs.String("outdir", "benchmark/out", "directory for result files and traces")
	smoke := fs.Bool("smoke", false, "tiny scales: exercises the code paths in seconds, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files or directories of them: -compare <base> <new>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare <base> <new>  (each a result file or a directory of result files)")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	p := defaultParams(*seconds)
	if *smoke {
		p = smokeParams(*seconds)
	}
	r := &report{Env: captureEnv(), Workload: w.name, Why: w.why, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		Constants: map[string]any{"params": p, "smoke": *smoke}}

	// Scratch files (WAL directories, checkpoints) live under TMPDIR,
	// which run.sh points inside the checkout, and are removed at exit.
	tmp, err := os.MkdirTemp("", "benchmark-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	calibBefore := calibrate()
	var c checker
	cfg := runConfig{p: p, seed: *seed, trace: r.Trace, tmp: tmp, outdir: *outdir}
	if err := w.run(cfg, r, &c); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	c.into(r)
	r.info("machine.calib_ms", "ms", "lower", calibBefore, calibrate())
	if miss := r.missing(); len(miss) > 0 {
		fmt.Fprintf(stderr, "benchmark: %s did not report %v\n", w.name, miss)
		return 1
	}

	path := *out
	if path == "" {
		suffix := ""
		if r.Trace {
			suffix = "-trace"
		}
		path = filepath.Join(*outdir, fmt.Sprintf("%s-seed%d%s.json", w.name, *seed, suffix))
	}
	if err := r.write(path); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "env: commit %s, %s, GOMAXPROCS %d, nproc %d, %s, kernel %s; server and clients share this process\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.CPUModel, r.Env.Kernel)
	r.print(stdout)
	fmt.Fprintln(stdout, "result file:", path)
	fmt.Fprintln(stdout, r.contractLine())
	return 0
}
