// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8), one testing.B target per computation (its doc comment
// names every artifact it regenerates). Custom metrics expose the
// paper's cost measures (messages, network bytes) alongside wall time.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkFig16Distributed
// Larger data:      use cmd/tagbench, which prints the full tables.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/bench"
)

const (
	benchScale = 0.5 // laptop-sized stand-in for the paper's SF series
	benchSeed  = 2021
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workloadBench times a whole workload on every engine and reports the
// aggregate runtimes, the Table 5 classification against refdb and the
// Figure 15 per-class TAG runtimes of the last run.
func workloadBench(b *testing.B, workload string) {
	env, err := bench.NewEnv(workload, benchScale, benchSeed, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Config{Runs: 1}
	b.ResetTimer()
	var last bench.WorkloadResult
	for i := 0; i < b.N; i++ {
		last, err = bench.RunWorkload(cfg, env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range last.Queries {
		if !q.Agree {
			b.Fatalf("%s: engines disagree", q.ID)
		}
	}
	b.ReportMetric(ms(last.Aggregate["tag"]), "tag_ms/op")
	b.ReportMetric(ms(last.Aggregate["refdb"]), "refdb_ms/op")
	o, c, w := last.WinCounts("refdb")
	b.ReportMetric(float64(o), "outperforms")
	b.ReportMetric(float64(c), "competitive")
	b.ReportMetric(float64(w), "worse")
	byClass := last.ByClass()
	b.ReportMetric(ms(byClass["local"]["tag"]), "la_tag_ms")
	b.ReportMetric(ms(byClass["global"]["tag"]), "ga_tag_ms")
}

// BenchmarkTables8to10TPCHPerQuery regenerates the per-query TPC-H tables
// (Tables 8-10; one scale point per run — sweep scales via cmd/tagbench)
// and Figure 13(a), the aggregate over all 22 queries on all engines
// (Table 14's summary row).
func BenchmarkTables8to10TPCHPerQuery(b *testing.B) { workloadBench(b, "tpch") }

// BenchmarkTables11to13TPCDSPerQuery regenerates the per-query TPC-DS
// tables (Tables 11-13), Figure 13(b)'s aggregate, Table 5's
// win/competitive/worse classification and Figure 15's runtimes by
// aggregation class.
func BenchmarkTables11to13TPCDSPerQuery(b *testing.B) { workloadBench(b, "tpcds") }

// loadBench loads a workload into every engine and reports the loaded
// sizes.
func loadBench(b *testing.B, workload string) {
	for i := 0; i < b.N; i++ {
		res, err := bench.MeasureLoad(workload, benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.RawBytes)/1024, "raw_kb")
		b.ReportMetric(float64(res.RowBytes)/1024, "row_idx_kb")
		b.ReportMetric(float64(res.ColStoreBytes)/1024, "col_kb")
		b.ReportMetric(float64(res.TAGBytes)/1024, "tag_kb")
	}
}

// BenchmarkFig14LoadedSize regenerates Table 1 (TPC-H loading time) and
// the TPC-H bars of Figure 14 (row store + indexes vs TAG graph).
func BenchmarkFig14LoadedSize(b *testing.B) { loadBench(b, "tpch") }

// BenchmarkTable2TPCDSLoad regenerates Table 2 (TPC-DS loading time),
// the TPC-DS bars of Figure 14 and Table 15 (in-memory column store
// footprint vs raw data size).
func BenchmarkTable2TPCDSLoad(b *testing.B) { loadBench(b, "tpcds") }

// selectedBench times a subset of a workload on the TAG engine only,
// reporting the aggregate (Tables 3/4/6 derive speedups from the full
// per-query tables; cmd/tagbench prints them directly).
func selectedBench(b *testing.B, workload string, ids []string) {
	env, err := bench.NewEnv(workload, benchScale, benchSeed, 0)
	if err != nil {
		b.Fatal(err)
	}
	sqlOf := map[string]string{}
	for _, q := range bench.WorkloadQueries(workload) {
		sqlOf[q.ID] = q.SQL
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if _, err := bench.RunOn(env, "tag", sqlOf[id]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3TPCHLocalAgg regenerates Table 3's query set (LA and
// correlated-subquery TPC-H queries).
func BenchmarkTable3TPCHLocalAgg(b *testing.B) {
	selectedBench(b, "tpch", []string{"q3", "q4", "q5", "q10", "q2", "q17", "q20", "q21"})
}

// BenchmarkTable4TPCHGlobalAgg regenerates Table 4's query set (GA and
// scalar TPC-H queries).
func BenchmarkTable4TPCHGlobalAgg(b *testing.B) {
	selectedBench(b, "tpch", []string{"q1", "q6", "q7", "q9", "q16", "q19"})
}

// BenchmarkTable6TPCDSSelected regenerates Table 6's selected TPC-DS
// queries across the aggregation classes.
func BenchmarkTable6TPCDSSelected(b *testing.B) {
	selectedBench(b, "tpcds", []string{"q37", "q82", "q84", "q7", "q12", "q56", "q22", "q45", "q69", "q74", "q32", "q94"})
}

// BenchmarkTable7PeakRAM regenerates Table 7: peak heap while the TPC-H
// workload runs on the TAG engine.
func BenchmarkTable7PeakRAM(b *testing.B) {
	env, err := bench.NewEnv("tpch", benchScale, benchSeed, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak, err := bench.PeakRAM(func() error {
			for _, q := range bench.WorkloadQueries("tpch") {
				if _, err := bench.RunOn(env, "tag", q.SQL); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak_mb")
	}
}

// distributedBench runs a workload on the simulated cluster and
// reports TAG's and the shuffle engine's network traffic.
func distributedBench(b *testing.B, workload string) {
	cfg := bench.Config{Runs: 1, Machines: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunDistributed(cfg, workload, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TagTraffic)/1024, "tag_net_kb")
		b.ReportMetric(float64(res.ShuffleTraffic)/1024, "shuffle_net_kb")
	}
}

// BenchmarkFig16Distributed regenerates Figure 16 (aggregate runtime and
// network traffic on the 6-machine simulated cluster, TPC-H side) and
// Table 16 (per-query distributed TPC-H; cmd/tagbench prints the rows).
func BenchmarkFig16Distributed(b *testing.B) { distributedBench(b, "tpch") }

// BenchmarkTable17DistributedTPCDS regenerates Table 17 and Figure 16's
// TPC-DS side.
func BenchmarkTable17DistributedTPCDS(b *testing.B) { distributedBench(b, "tpcds") }
