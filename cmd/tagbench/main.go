// Command tagbench regenerates the paper's evaluation tables and figures
// (§8) on the reproduction's engines. Experiments:
//
//	load        Tables 1/2 loading times + Figure 14 sizes (+ Table 15)
//	tpch        Tables 3/4/8-10, Figure 13(a), Table 5-style win counts
//	tpcds       Tables 5/6/11-13, Figures 13(b)/15
//	memory      Table 7 peak RAM during workload execution
//	distributed Figure 16 + Tables 16/17 on the simulated cluster
//	ablation    design-choice ablations (θ sweep, Cartesian A/B, LA vs GA,
//	            thread scaling, materialization policy)
//	serve       concurrent-serving throughput (QPS at 1/4/16 clients:
//	            session pool vs serialized single session vs per-query
//	            graph rebuild)
//	maintain    serve-while-write: reader QPS under a continuous stream
//	            of insert batches, graph generations (clone + atomic
//	            swap) vs the stop-the-world quiescence baseline
//	maintain2   incremental pinned-query maintenance: hot
//	            SubscriptionAnswer reads and O(delta) per-epoch folds
//	            vs cold full-BSP re-runs of the same queries
//	combine     message-plane combiners: Send-time folding vs
//	            materializing every message on aggregate-heavy queries
//	            (wall time, merge time, peak inbox bytes, fold counters)
//	dist        real-wire distributed execution: the TPC-H suite on
//	            1/2/4-worker topologies over actual loopback sockets
//	            (internal/dist) vs the single-process engine, with
//	            measured bytes-on-wire checked against the simulated
//	            network accounting
//	wal         write durability: ingest throughput through the WriteOp
//	            write-ahead log under each sync policy (always /
//	            group-commit interval / never) vs the memory-only path
//	recover     boot time from one crash image, with a mid-log
//	            checkpoint (snapshot-load + suffix replay) vs without
//	            it (full WAL replay), plus replayed-record counts
//	scenario    end-to-end scenario matrix against a real tagserve
//	            process: crash/replay, on-disk corruption, startup
//	            refusals, fuzz barrages, skewed write load (quick
//	            tier; `tagscenario -full` for the soak rows)
//	all         everything above
//
// -exp accepts a comma-separated list (e.g. -exp combine,dist); an
// unknown name is an error listing the valid experiments. Flags -json
// <path> writes the structured results of the experiments that ran
// (QPS, supersteps, bytes, ns/op) as a machine-readable BENCH_*.json
// file; -quick shrinks scales, runs and measurement windows so a CI
// smoke pass finishes in seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/scenario"
)

func main() {
	exp := flag.String("exp", "all", "experiments, comma-separated: load|tpch|tpcds|memory|distributed|ablation|serve|maintain|maintain2|combine|dist|wal|recover|proto|scenario|all")
	scalesFlag := flag.String("scales", "0.5,1,2", "comma-separated scale factors (stand-ins for SF-30/50/75)")
	runs := flag.Int("runs", 3, "timed repetitions per query (after one warm-up)")
	workers := flag.Int("workers", 0, "BSP worker threads (0 = GOMAXPROCS)")
	machines := flag.Int("machines", 6, "simulated cluster size")
	seed := flag.Int64("seed", 2021, "generator seed")
	jsonPath := flag.String("json", "", "write machine-readable results (BENCH_*.json) to this path")
	quick := flag.Bool("quick", false, "smoke mode: one small scale, one run, short windows")
	flag.Parse()

	var scales []float64
	for _, s := range strings.Split(*scalesFlag, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad scale %q: %v\n", s, err)
			os.Exit(2)
		}
		scales = append(scales, f)
	}
	if *quick {
		scales = []float64{0.1}
		*runs = 1
	}
	cfg := bench.Config{Scales: scales, Seed: *seed, Workers: *workers,
		Runs: *runs, Machines: *machines, Out: os.Stdout}

	// report collects the structured results of whatever ran, keyed by
	// experiment name, for -json.
	report := map[string]any{}

	// The experiment registry, in run order. An -exp name not in it is
	// an error, not a silent no-op run of zero experiments.
	experiments := []struct {
		name string
		fn   func() error
	}{
		{"load", func() error { return runLoad(cfg, report) }},
		{"tpch", func() error { return runWorkload(cfg, "tpch", report) }},
		{"tpcds", func() error { return runWorkload(cfg, "tpcds", report) }},
		{"memory", func() error { return runMemory(cfg, report) }},
		{"distributed", func() error { return runDistributed(cfg, report) }},
		{"ablation", func() error { return runAblation(cfg, report) }},
		{"serve", func() error { return runServe(cfg, *quick, report) }},
		{"maintain", func() error { return runMaintain(cfg, *quick, report) }},
		{"maintain2", func() error { return runMaintain2(cfg, *quick, report) }},
		{"combine", func() error { return runCombine(cfg, *quick, report) }},
		{"dist", func() error { return runDist(cfg, *quick, report) }},
		{"wal", func() error { return runWal(cfg, *quick, report) }},
		{"recover", func() error { return runRecover(cfg, *quick, report) }},
		{"proto", func() error { return runProto(cfg, *quick, report) }},
		{"scenario", func() error { return runScenario(cfg, *quick, report) }},
	}
	valid := map[string]bool{"all": true}
	var names []string
	for _, e := range experiments {
		valid[e.name] = true
		names = append(names, e.name)
	}
	requested := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !valid[name] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s or all\n", name, strings.Join(names, "|"))
			os.Exit(2)
		}
		requested[name] = true
	}
	if len(requested) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment requested; valid: %s or all\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	for _, e := range experiments {
		if !requested["all"] && !requested[e.name] {
			continue
		}
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		payload := map[string]any{
			"generated": time.Now().UTC().Format(time.RFC3339),
			"config": map[string]any{
				"experiment": *exp, "scales": scales, "runs": *runs,
				"workers": *workers, "machines": *machines, "seed": *seed, "quick": *quick,
			},
			"results": report,
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(cfg.Out, "\nwrote %s\n", *jsonPath)
	}
}

// runScenario runs the end-to-end matrix against a real tagserve
// process (quick tier under -quick, everything otherwise) and records
// pass/fail per row. A failing row fails the experiment.
func runScenario(cfg bench.Config, quick bool, report map[string]any) error {
	tier := scenario.Full
	if quick {
		tier = scenario.Quick
	}
	rows, err := scenario.Select(scenario.Matrix(), tier, "")
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nScenario matrix — real-process crash/fuzz/load drills (%v tier)\n", tier)
	r := &scenario.Runner{Out: cfg.Out}
	results, err := r.RunAll(rows)
	if err != nil {
		return err
	}
	type row struct {
		Name    string  `json:"name"`
		Tier    string  `json:"tier"`
		Passed  bool    `json:"passed"`
		Seconds float64 `json:"seconds"`
		Error   string  `json:"error,omitempty"`
	}
	var out []row
	failed := 0
	for _, res := range results {
		rr := row{Name: res.Name, Tier: res.Tier.String(), Passed: res.Err == nil,
			Seconds: res.Elapsed.Seconds()}
		if res.Err != nil {
			failed++
			rr.Error = fmt.Sprintf("step %s: %v", res.Step, res.Err)
		}
		out = append(out, rr)
	}
	report["scenario"] = out
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(results))
	}
	return nil
}

func runCombine(cfg bench.Config, quick bool, report map[string]any) error {
	workerCounts := []int{1, 4}
	workloads := []string{"tpch", "tpcds"}
	if quick {
		workerCounts = []int{1}
		workloads = []string{"tpch"}
	}
	var all []bench.CombineResult
	for _, workload := range workloads {
		res, err := bench.CombineBench(cfg, workload, workerCounts)
		if err != nil {
			return err
		}
		bench.PrintCombine(cfg.Out, res)
		all = append(all, res...)
	}
	report["combine"] = all
	return nil
}

func runWal(cfg bench.Config, quick bool, report map[string]any) error {
	batchRows, window := 200, time.Second
	workloads := []string{"tpch", "tpcds"}
	if quick {
		batchRows, window = 100, 300*time.Millisecond
		workloads = []string{"tpch"}
	}
	var all []bench.WALResult
	for _, workload := range workloads {
		results, err := bench.WALBench(cfg, workload, batchRows, window)
		if err != nil {
			return err
		}
		for _, res := range results {
			bench.PrintWAL(cfg.Out, res)
		}
		all = append(all, results...)
	}
	report["wal"] = all
	return nil
}

func runRecover(cfg bench.Config, quick bool, report map[string]any) error {
	batches, batchRows := 20, 500
	workloads := []string{"tpch", "tpcds"}
	if quick {
		batches, batchRows = 40, 200
		workloads = []string{"tpch"}
	}
	var all []bench.RecoverResult
	for _, workload := range workloads {
		results, err := bench.RecoverBench(cfg, workload, batches, batchRows)
		if err != nil {
			return err
		}
		for _, res := range results {
			bench.PrintRecover(cfg.Out, res)
		}
		all = append(all, results...)
	}
	report["recover"] = all
	return nil
}

func runProto(cfg bench.Config, quick bool, report map[string]any) error {
	// 16 clients stays in both tiers: the binary protocol's headline
	// claim (point-query QPS at high client counts) is measured here.
	clients, window := []int{1, 4, 16}, 500*time.Millisecond
	if quick {
		window = 150 * time.Millisecond
	}
	results, checked, err := bench.ProtoBench(cfg, "tpch", clients, window)
	if err != nil {
		return err
	}
	bench.PrintProto(cfg.Out, "tpch", checked, results)
	report["proto"] = map[string]any{"identity_checked": checked, "results": results}
	return nil
}

func runDist(cfg bench.Config, quick bool, report map[string]any) error {
	workerCounts := []int{1, 2, 4}
	var queryIDs []string // nil = the whole suite
	if quick {
		workerCounts = []int{1, 2}
		queryIDs = []string{"q1", "q5", "q9"}
	}
	res, err := bench.DistWireBench(cfg, "tpch", workerCounts, queryIDs)
	if err != nil {
		return err
	}
	bench.PrintDistWire(cfg.Out, res)
	report["dist"] = res
	return nil
}

func runMaintain(cfg bench.Config, quick bool, report map[string]any) error {
	readers, batchRows, window := 8, 200, time.Second
	if quick {
		readers, batchRows, window = 4, 100, 300*time.Millisecond
	}
	var all []bench.MaintainResult
	for _, workload := range []string{"tpch", "tpcds"} {
		results, err := bench.Maintain(cfg, workload, readers, batchRows, window)
		if err != nil {
			return err
		}
		for _, res := range results {
			bench.PrintMaintain(cfg.Out, res)
		}
		all = append(all, results...)
	}
	report["maintain"] = all
	return nil
}

func runMaintain2(cfg bench.Config, quick bool, report map[string]any) error {
	batchRows, rounds := 500, 8
	if quick {
		batchRows, rounds = 100, 3
	}
	results, err := bench.Maintain2(cfg, batchRows, rounds)
	if err != nil {
		return err
	}
	for _, res := range results {
		bench.PrintMaintain2(cfg.Out, res)
	}
	report["maintain2"] = results
	return nil
}

func runServe(cfg bench.Config, quick bool, report map[string]any) error {
	clients, window := []int{1, 4, 16}, 500*time.Millisecond
	if quick {
		clients, window = []int{1, 4}, 150*time.Millisecond
	}
	serveReport := map[string]any{}
	for _, workload := range []string{"tpch", "tpcds"} {
		res, err := bench.Concurrency(cfg, workload, clients, window)
		if err != nil {
			return err
		}
		bench.PrintConcurrency(cfg.Out, workload, res)
		serveReport[workload] = res
	}
	report["serve"] = serveReport
	return nil
}

func runLoad(cfg bench.Config, report map[string]any) error {
	loadReport := map[string]any{}
	for _, workload := range []string{"tpch", "tpcds"} {
		var results []bench.LoadResult
		for _, sc := range cfg.Scales {
			r, err := bench.MeasureLoad(workload, sc, cfg.Seed)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		bench.PrintLoad(cfg.Out, results)
		loadReport[workload] = results
	}
	report["load"] = loadReport
	return nil
}

func runWorkload(cfg bench.Config, workload string, report map[string]any) error {
	var all []bench.WorkloadResult
	for _, sc := range cfg.Scales {
		env, err := bench.NewEnv(workload, sc, cfg.Seed, cfg.Workers)
		if err != nil {
			return err
		}
		res, err := bench.RunWorkload(cfg, env)
		if err != nil {
			return err
		}
		bench.PrintPerQuery(cfg.Out, res)
		all = append(all, res)
	}
	last := all[len(all)-1]
	bench.PrintAggregate(cfg.Out, all)
	bench.PrintByClass(cfg.Out, last)
	bench.PrintWinCounts(cfg.Out, last)
	if workload == "tpch" {
		bench.PrintSelected(cfg.Out, last, "Table 3 — LA and correlated-subquery queries",
			[]string{"q3", "q4", "q5", "q10", "q2", "q17", "q20", "q21"})
		bench.PrintSelected(cfg.Out, last, "Table 4 — GA and scalar queries",
			[]string{"q1", "q6", "q7", "q9", "q16", "q19"})
	} else {
		bench.PrintSelected(cfg.Out, last, "Table 6 — selected TPC-DS queries by class",
			[]string{"q37", "q82", "q84", "q7", "q12", "q56", "q22", "q45", "q69", "q74", "q32", "q94"})
	}
	report[workload] = all
	return nil
}

func runMemory(cfg bench.Config, report map[string]any) error {
	fmt.Fprintf(cfg.Out, "\nTable 7 — peak heap during workload execution (MB)\n")
	fmt.Fprintf(cfg.Out, "%-8s %-8s %10s\n", "workload", "engine", "peak_mb")
	sc := cfg.Scales[len(cfg.Scales)-1]
	var rows []map[string]any
	for _, workload := range []string{"tpch", "tpcds"} {
		env, err := bench.NewEnv(workload, sc, cfg.Seed, cfg.Workers)
		if err != nil {
			return err
		}
		for _, engine := range bench.Engines {
			peak, err := bench.PeakRAM(func() error {
				for _, q := range bench.WorkloadQueries(workload) {
					if _, err := bench.RunOn(env, engine, q.SQL); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-8s %-8s %10.1f\n", workload, engine, float64(peak)/(1<<20))
			rows = append(rows, map[string]any{
				"workload": workload, "engine": engine, "scale": sc, "peak_bytes": peak})
		}
	}
	report["memory"] = rows
	return nil
}

func runDistributed(cfg bench.Config, report map[string]any) error {
	sc := cfg.Scales[len(cfg.Scales)-1]
	distReport := map[string]any{}
	for _, workload := range []string{"tpch", "tpcds"} {
		res, err := bench.RunDistributed(cfg, workload, sc)
		if err != nil {
			return err
		}
		bench.PrintDistributed(cfg.Out, res)
		distReport[workload] = res
	}
	report["distributed"] = distReport
	return nil
}

func runAblation(cfg bench.Config, report map[string]any) error {
	sc := cfg.Scales[len(cfg.Scales)-1]
	th, err := bench.AblationTheta(cfg, sc, []float64{0, 1, 4, 16, 1e9})
	if err != nil {
		return err
	}
	bench.PrintTheta(cfg.Out, th)
	ca, err := bench.AblationCartesian(cfg, cfg.Scales[0])
	if err != nil {
		return err
	}
	bench.PrintCartesian(cfg.Out, ca)
	ap, err := bench.AblationAggPath(cfg, sc)
	if err != nil {
		return err
	}
	bench.PrintAggPath(cfg.Out, ap)
	wk, err := bench.AblationWorkers(cfg, sc, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	bench.PrintWorkers(cfg.Out, wk)
	pl, err := bench.AblationPolicy(cfg, sc)
	if err != nil {
		return err
	}
	bench.PrintPolicy(cfg.Out, pl)
	report["ablation"] = map[string]any{
		"theta": th, "cartesian": ca, "agg_path": ap, "workers": wk, "policy": pl}
	return nil
}
