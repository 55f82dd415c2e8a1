package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// ThetaResult is one point of the heavy/light threshold sweep (§6.1.2).
type ThetaResult struct {
	Theta    float64
	Elapsed  time.Duration
	Messages int64
	Rows     int
}

// AblationTheta sweeps the heavy/light threshold θ on the 5-way cycle
// query (TPC-H q5). θ=0 is the paper's √IN default; very small θ makes
// everything heavy, very large θ makes everything light.
func AblationTheta(cfg Config, scale float64, thetas []float64) ([]ThetaResult, error) {
	cfg = cfg.withDefaults()
	cat := tpch.Generate(scale, cfg.Seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}
	q := tpch.ByID("q5")
	var out []ThetaResult
	for _, th := range thetas {
		ex := core.NewSession(g, bsp.Options{Workers: cfg.Workers})
		ex.ForceCyclePrePass = true // exercise §6.2 even on PK-FK cycles
		ex.Theta = th
		start := time.Now()
		res, err := ex.Query(q.SQL)
		if err != nil {
			return nil, err
		}
		out = append(out, ThetaResult{
			Theta: th, Elapsed: time.Since(start),
			Messages: ex.Stats().Messages, Rows: res.Len(),
		})
	}
	return out, nil
}

// PrintTheta renders the θ sweep.
func PrintTheta(w io.Writer, results []ThetaResult) {
	fmt.Fprintf(w, "\nAblation — heavy/light θ sweep on TPC-H q5 (5-way cycle)\n")
	fmt.Fprintf(w, "%-12s %10s %12s %8s\n", "theta", "time_ms", "messages", "rows")
	for _, r := range results {
		label := fmt.Sprintf("%.3g", r.Theta)
		if r.Theta == 0 {
			label = "sqrt(IN)"
		}
		fmt.Fprintf(w, "%-12s %10.3f %12d %8d\n", label, ms(r.Elapsed), r.Messages, r.Rows)
	}
}

// CartesianResult compares Algorithms A and B of §6.3.
type CartesianResult struct {
	Algorithm string
	Elapsed   time.Duration
	Messages  int64
	Bytes     int64
	Rows      int
}

// AblationCartesian runs nation × orders with both algorithms.
func AblationCartesian(cfg Config, scale float64) ([]CartesianResult, error) {
	cfg = cfg.withDefaults()
	cat := tpch.Generate(scale, cfg.Seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}
	var out []CartesianResult
	for _, alg := range []string{"A", "B"} {
		ex := core.NewSession(g, bsp.Options{Workers: cfg.Workers})
		start := time.Now()
		var rows int
		if alg == "A" {
			r, err := ex.CartesianA("nation", "orders")
			if err != nil {
				return nil, err
			}
			rows = r.Len()
		} else {
			r, err := ex.CartesianB("nation", "orders")
			if err != nil {
				return nil, err
			}
			rows = r.Len()
		}
		st := ex.Stats()
		out = append(out, CartesianResult{
			Algorithm: alg, Elapsed: time.Since(start),
			Messages: st.Messages, Bytes: st.MessageBytes, Rows: rows,
		})
	}
	return out, nil
}

// PrintCartesian renders the Cartesian ablation.
func PrintCartesian(w io.Writer, results []CartesianResult) {
	fmt.Fprintf(w, "\nAblation — Cartesian product Algorithm A (centralized) vs B (distributed), §6.3\n")
	fmt.Fprintf(w, "%-10s %10s %12s %12s %8s\n", "algorithm", "time_ms", "messages", "msg_kb", "rows")
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %10.3f %12d %12d %8d\n", r.Algorithm, ms(r.Elapsed), r.Messages, r.Bytes/1024, r.Rows)
	}
}

// AggPathResult compares the LA and GA aggregation paths on the same
// query (§7): LA completes each group at its attribute vertex in parallel
// while GA funnels every partial into the single aggregator vertex.
type AggPathResult struct {
	Mode    string
	Elapsed time.Duration
	Rows    int
}

// AblationAggPath runs a local-aggregation query (TPC-H q4) through both
// finalization paths. This is the LA-vs-GA effect §8.3 measures: the
// global aggregator is a sequential bottleneck.
func AblationAggPath(cfg Config, scale float64) ([]AggPathResult, error) {
	cfg = cfg.withDefaults()
	cat := tpch.Generate(scale, cfg.Seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}
	q := tpch.ByID("q4")
	var out []AggPathResult
	for _, force := range []bool{false, true} {
		ex := core.NewSession(g, bsp.Options{Workers: cfg.Workers})
		ex.ForceGlobalAgg = force
		if _, err := ex.Query(q.SQL); err != nil { // warm-up
			return nil, err
		}
		start := time.Now()
		var rows int
		for r := 0; r < cfg.Runs; r++ {
			res, err := ex.Query(q.SQL)
			if err != nil {
				return nil, err
			}
			rows = res.Len()
		}
		mode := "local"
		if force {
			mode = "global"
		}
		out = append(out, AggPathResult{Mode: mode, Elapsed: time.Since(start) / time.Duration(cfg.Runs), Rows: rows})
	}
	return out, nil
}

// PrintAggPath renders the aggregation-path ablation.
func PrintAggPath(w io.Writer, results []AggPathResult) {
	fmt.Fprintf(w, "\nAblation — LA (per-attribute-vertex) vs forced GA (global aggregator) on TPC-H q4 (§7)\n")
	fmt.Fprintf(w, "%-8s %10s %8s\n", "path", "time_ms", "groups")
	for _, r := range results {
		fmt.Fprintf(w, "%-8s %10.3f %8d\n", r.Mode, ms(r.Elapsed), r.Rows)
	}
}

// WorkerResult is one point of the thread-parallelism sweep.
type WorkerResult struct {
	Workers int
	Elapsed time.Duration
}

// AblationWorkers measures intra-server thread scaling (the paper's
// single-server premise) on a join-heavy subset of TPC-H.
func AblationWorkers(cfg Config, scale float64, workers []int) ([]WorkerResult, error) {
	cfg = cfg.withDefaults()
	cat := tpch.Generate(scale, cfg.Seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}
	subset := []string{"q3", "q5", "q10", "q12"}
	var out []WorkerResult
	for _, wk := range workers {
		ex := core.NewSession(g, bsp.Options{Workers: wk})
		// Warm-up.
		for _, id := range subset {
			if _, err := ex.Query(tpch.ByID(id).SQL); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		for _, id := range subset {
			if _, err := ex.Query(tpch.ByID(id).SQL); err != nil {
				return nil, err
			}
		}
		out = append(out, WorkerResult{Workers: wk, Elapsed: time.Since(start)})
	}
	return out, nil
}

// PrintWorkers renders the worker sweep.
func PrintWorkers(w io.Writer, results []WorkerResult) {
	fmt.Fprintf(w, "\nAblation — thread-parallelism sweep (TPC-H q3/q5/q10/q12)\n")
	fmt.Fprintf(w, "%-8s %10s %10s\n", "workers", "time_ms", "speedup")
	base := results[0].Elapsed
	for _, r := range results {
		fmt.Fprintf(w, "%-8d %10.3f %9.2fx\n", r.Workers, ms(r.Elapsed), float64(base)/float64(r.Elapsed))
	}
}

// PolicyResult compares TAG materialization policies (§3's discussion).
type PolicyResult struct {
	Policy    string
	BuildTime time.Duration
	Bytes     int
	AttrVerts int
}

// AblationPolicy compares the default materialization policy against
// materializing every attribute.
func AblationPolicy(cfg Config, scale float64) ([]PolicyResult, error) {
	cfg = cfg.withDefaults()
	var out []PolicyResult
	for _, p := range []struct {
		name   string
		policy tag.Policy
	}{{"default", nil}, {"all", tag.MaterializeAll}} {
		cat := tpch.Generate(scale, cfg.Seed)
		start := time.Now()
		g, err := tag.Build(cat, p.policy)
		if err != nil {
			return nil, err
		}
		out = append(out, PolicyResult{
			Policy: p.name, BuildTime: time.Since(start),
			Bytes: g.ByteSize(), AttrVerts: g.NumAttrVertices(),
		})
	}
	return out, nil
}

// PrintPolicy renders the policy ablation.
func PrintPolicy(w io.Writer, results []PolicyResult) {
	fmt.Fprintf(w, "\nAblation — TAG materialization policy (§3): default (skip floats/comments) vs all\n")
	fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "policy", "build_ms", "size_kb", "attr_verts")
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %10.3f %12d %12d\n", r.Policy, ms(r.BuildTime), r.Bytes/1024, r.AttrVerts)
	}
}
