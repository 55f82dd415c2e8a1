package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/tag"
)

// CombineModes compared by the message-plane combiner experiment: the
// same session with Send-time folding disabled ("nocombine", every
// logical message materialized in the inbox) vs. the combined plane
// ("combine", at most one message per (active vertex, slot)). Rows and
// paper-facing Stats are byte-identical either way; peak inbox memory,
// merge time and wall time differ on aggregate-heavy queries.
var CombineModes = []string{"nocombine", "combine"}

// combineQueries are the aggregate-heavy queries the experiment times:
// scalar/global aggregations funnel every survivor's partials into the
// single aggregator vertex (the §8.3 GA bottleneck the combiner
// collapses), and the LA queries fan partials into attribute vertices.
var combineQueries = map[string][]string{
	"tpch":  {"q1", "q3", "q5", "q6", "q9", "q18"},
	"tpcds": {"q22", "q32", "q56", "q74"},
}

// CombineResult is one cell of the combiner experiment.
type CombineResult struct {
	Workload         string  `json:"workload"`
	Scale            float64 `json:"scale"`
	Query            string  `json:"query"`
	Workers          int     `json:"workers"`
	Mode             string  `json:"mode"` // "nocombine" | "combine"
	NsPerOp          int64   `json:"ns_per_op"`
	MergeNsPerOp     int64   `json:"merge_ns_per_op"`
	Messages         int64   `json:"messages"`          // logical sends (identical across modes)
	MessagesCombined int64   `json:"messages_combined"` // folded en route (0 for nocombine)
	InboxBytesSaved  int64   `json:"inbox_bytes_saved"` // Message slots never materialized
	PeakInboxBytes   int64   `json:"peak_inbox_bytes"`  // largest per-superstep inbox footprint
}

// CombineBench measures the Send-time combiner against the uncombined
// plane on aggregate-heavy workload queries: wall time, communication-
// stage time, peak inbox residency and the fold counters, per worker
// count. One graph (cfg.Scales[0]) is shared by every cell; each cell
// gets a fresh session so peaks don't bleed across modes.
func CombineBench(cfg Config, workload string, workerCounts []int) ([]CombineResult, error) {
	cfg = cfg.withDefaults()
	scale := cfg.Scales[0]
	cat := generate(workload, scale, cfg.Seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}

	var out []CombineResult
	for _, id := range combineQueries[workload] {
		sql := ""
		for _, q := range WorkloadQueries(workload) {
			if q.ID == id {
				sql = q.SQL
			}
		}
		if sql == "" {
			return nil, fmt.Errorf("bench: unknown combine query %q", id)
		}
		for _, w := range workerCounts {
			for _, mode := range CombineModes {
				sess := core.NewSession(g, bsp.Options{
					Workers: w, NoCombine: mode == "nocombine", Profile: true,
				})
				if _, err := sess.Query(sql); err != nil { // shake out errors early
					return nil, fmt.Errorf("bench: %s on %d workers: %w", id, w, err)
				}
				var qerr error
				before := sess.Stats()
				mergeBefore := sess.MergeDuration()
				runs := int64(0)
				avg := timedCell(cfg, func() {
					runs++
					if _, err := sess.Query(sql); err != nil && qerr == nil {
						qerr = err
					}
				})
				if qerr != nil {
					return nil, qerr
				}
				stats := sess.Stats().Sub(before)
				out = append(out, CombineResult{
					Workload: workload, Scale: scale, Query: id, Workers: w, Mode: mode,
					NsPerOp:          avg,
					MergeNsPerOp:     int64(sess.MergeDuration()-mergeBefore) / runs,
					Messages:         stats.Messages / runs,
					MessagesCombined: stats.MessagesCombined / runs,
					InboxBytesSaved:  stats.InboxBytesSaved / runs,
					PeakInboxBytes:   sess.PeakInboxBytes(),
				})
			}
		}
	}
	return out, nil
}

// PrintCombine renders the combiner comparison: per (query, workers),
// the uncombined vs combined plane on wall time, merge time, peak inbox
// residency and the fraction of logical messages folded en route.
func PrintCombine(w io.Writer, results []CombineResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "\nMessage-plane combiners — %s SF %g: fold at Send time vs materialize every message\n",
		results[0].Workload, results[0].Scale)
	fmt.Fprintf(w, "(identical rows and paper-facing cost measures; aggregate-heavy TAG-join queries)\n")
	fmt.Fprintf(w, "%-6s %7s %10s %10s %8s %9s %9s %8s %11s %11s %9s\n",
		"query", "workers", "plain_ms", "comb_ms", "speedup",
		"merge_pms", "merge_cms", "folded%", "peak_plainB", "peak_combB", "peakRatio")
	type key struct {
		query   string
		workers int
	}
	cells := map[key]map[string]CombineResult{}
	var order []key
	for _, r := range results {
		k := key{r.Query, r.Workers}
		if cells[k] == nil {
			cells[k] = map[string]CombineResult{}
			order = append(order, k)
		}
		cells[k][r.Mode] = r
	}
	for _, k := range order {
		plain, comb := cells[k]["nocombine"], cells[k]["combine"]
		speedup, folded, peakRatio := 0.0, 0.0, 0.0
		if comb.NsPerOp > 0 {
			speedup = float64(plain.NsPerOp) / float64(comb.NsPerOp)
		}
		if comb.Messages > 0 {
			folded = 100 * float64(comb.MessagesCombined) / float64(comb.Messages)
		}
		if comb.PeakInboxBytes > 0 {
			peakRatio = float64(plain.PeakInboxBytes) / float64(comb.PeakInboxBytes)
		}
		fmt.Fprintf(w, "%-6s %7d %10.3f %10.3f %7.2fx %9.3f %9.3f %7.1f%% %11d %11d %8.2fx\n",
			k.query, k.workers,
			float64(plain.NsPerOp)/1e6, float64(comb.NsPerOp)/1e6, speedup,
			float64(plain.MergeNsPerOp)/1e6, float64(comb.MergeNsPerOp)/1e6,
			folded, plain.PeakInboxBytes, comb.PeakInboxBytes, peakRatio)
	}
}

// timedCell measures one benchmark cell with the noise controls small
// cells need: a warm-up call (pools fill, maps size), a GC fence so a
// previous cell's garbage is not collected on this cell's clock, and
// an iteration count scaled up until the cell covers ≥~200ms of work
// (capped at 200 iterations). Returns average ns per call.
func timedCell(cfg Config, call func()) int64 {
	call() // warm-up
	runtime.GC()
	iters := cfg.Runs
	probe := time.Now()
	call()
	if per := time.Since(probe); per < 50*time.Millisecond && per > 0 {
		more := int(200 * time.Millisecond / per)
		if more > 200 {
			more = 200
		}
		if iters < more {
			iters = more
		}
	}
	start := time.Now()
	for r := 0; r < iters; r++ {
		call()
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}
