// Command tagbench regenerates the paper's evaluation tables and figures
// (§8) on the reproduction's engines. Experiments:
//
//	load        Tables 1/2 loading times + Figure 14 sizes (+ Table 15)
//	tpch        Tables 3/4/8-10, Figure 13(a), Table 5-style win counts
//	tpcds       Tables 5/6/11-13, Figures 13(b)/15
//	memory      Table 7 peak RAM during workload execution
//	distributed Figure 16 + Tables 16/17 on the simulated cluster
//	all         everything above
//
// -exp accepts a comma-separated list (e.g. -exp tpch,memory); an
// unknown name is an error listing the valid experiments. -quick
// shrinks to one small scale and one run so a CI smoke pass finishes in
// seconds. Serving, durability, maintenance and message-plane numbers,
// thread scaling among them, come from the benchmark module
// (benchmark/README.md), not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiments, comma-separated: load|tpch|tpcds|memory|distributed|all")
	scalesFlag := flag.String("scales", "0.5,1,2", "comma-separated scale factors (stand-ins for SF-30/50/75)")
	runs := flag.Int("runs", 3, "timed repetitions per query (after one warm-up)")
	workers := flag.Int("workers", 0, "BSP worker threads (0 = GOMAXPROCS)")
	machines := flag.Int("machines", 6, "simulated cluster size")
	seed := flag.Int64("seed", 2021, "generator seed")
	quick := flag.Bool("quick", false, "smoke mode: one small scale, one run")
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

	// The experiment registry, in run order. An -exp name not in it is
	// an error, not a silent no-op run of zero experiments.
	experiments := []struct {
		name string
		fn   func() error
	}{
		{"load", func() error { return runLoad(cfg) }},
		{"tpch", func() error { return runWorkload(cfg, "tpch") }},
		{"tpcds", func() error { return runWorkload(cfg, "tpcds") }},
		{"memory", func() error { return runMemory(cfg) }},
		{"distributed", func() error { return runDistributed(cfg) }},
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
}

func runLoad(cfg bench.Config) error {
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
	}
	return nil
}

func runWorkload(cfg bench.Config, workload string) error {
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
	return nil
}

func runMemory(cfg bench.Config) error {
	fmt.Fprintf(cfg.Out, "\nTable 7 — peak heap during workload execution (MB)\n")
	fmt.Fprintf(cfg.Out, "%-8s %-8s %10s\n", "workload", "engine", "peak_mb")
	sc := cfg.Scales[len(cfg.Scales)-1]
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
		}
	}
	return nil
}

func runDistributed(cfg bench.Config) error {
	sc := cfg.Scales[len(cfg.Scales)-1]
	for _, workload := range []string{"tpch", "tpcds"} {
		res, err := bench.RunDistributed(cfg, workload, sc)
		if err != nil {
			return err
		}
		bench.PrintDistributed(cfg.Out, res)
	}
	return nil
}
