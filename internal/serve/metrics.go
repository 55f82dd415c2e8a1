package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// This file is the serving layer's observability surface: the statRows
// table that both /stats and /metrics render, lock-free log-spaced
// latency histograms (one per protocol), and the Prometheus text
// exposition served on /metrics. No external client library is used —
// the text format is a stable, trivially-rendered contract.

// latBuckets are the histogram upper bounds in seconds, log-spaced
// 1-2.5-5 per decade from 100µs to 10s — wide enough for a point query
// on a warm session (tens of µs land in the first bucket) and a cold
// SF-scale join alike. Observations beyond the last bound land in the
// implicit +Inf bucket.
var latBuckets = [numLatBuckets]float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

const numLatBuckets = 16

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe with no locks: one atomic counter per bucket plus an atomic
// sum. Bucket counts are non-cumulative internally; the Prometheus
// rendering accumulates them into the le-cumulative form the format
// requires.
type Histogram struct {
	counts [len(latBuckets) + 1]atomic.Int64 // last slot = +Inf
	sumNs  atomic.Int64
}

// NewHistogram returns an empty latency histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one query latency.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latBuckets) && s > latBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds from the
// bucket counts: the returned value is the upper bound of the bucket
// the quantile falls in (the standard conservative histogram
// estimate), with linear interpolation inside the bucket. Returns 0
// with no observations; observations beyond the last bound report the
// last bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			if i >= len(latBuckets) {
				return latBuckets[len(latBuckets)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = latBuckets[i-1]
			}
			frac := (rank - float64(seen)) / float64(c)
			return lo + (latBuckets[i]-lo)*frac
		}
		seen += c
	}
	return latBuckets[len(latBuckets)-1]
}

// statRow declares one serving counter for both operator views: its
// /stats JSON key, its Prometheus name, type and help text, and a
// getter over a Stats snapshot. The getter returns the value in its
// natural type (integers stay integers, so a uint64 epoch is exact) or
// nil to leave the row out of both views. Adding a counter means one
// Stats field plus one row; neither view names a counter itself.
type statRow struct {
	key, prom, typ, help string
	get                  func(st *Stats) any
}

var statRows = []statRow{
	{"queries", "tagserve_queries_total", "counter", "Queries completed successfully.", func(st *Stats) any { return st.Queries }},
	{"errors", "tagserve_query_errors_total", "counter", "Queries that failed (parse, analyze, or execution).", func(st *Stats) any { return st.Errors }},
	{"canceled", "tagserve_queries_canceled_total", "counter", "Queries aborted by deadline or client cancellation.", func(st *Stats) any { return st.Canceled }},
	{"rejected", "tagserve_admission_rejected_total", "counter", "Queries refused by admission control (session pool exhausted past the bounded wait).", func(st *Stats) any { return st.Rejected }},
	{"write_rejected", "tagserve_write_rejected_total", "counter", "Writes refused by admission control (write queue full past the bounded wait).", func(st *Stats) any { return st.WriteRejected }},
	{"in_flight", "tagserve_sessions_in_flight", "gauge", "Queries currently executing.", func(st *Stats) any { return st.InFlight }},
	{"prepared_hits", "tagserve_prepared_hits_total", "counter", "Queries served from the prepared-statement cache.", func(st *Stats) any { return st.PreparedHits }},
	{"prepared_misses", "tagserve_prepared_misses_total", "counter", "Queries analyzed afresh.", func(st *Stats) any { return st.PreparedMisses }},
	{"prepared_size", "tagserve_prepared_statements", "gauge", "Cached prepared statements.", func(st *Stats) any { return st.PreparedSize }},
	{"avg_ms", "tagserve_query_avg_milliseconds", "gauge", "Mean wall time of successful queries, in milliseconds.", func(st *Stats) any { return ms(st.TotalTime) / max(1, float64(st.Queries)) }},
	{"max_ms", "tagserve_query_max_milliseconds", "gauge", "Wall time of the slowest successful query, in milliseconds.", func(st *Stats) any { return ms(st.MaxTime) }},
	{"bsp_supersteps", "tagserve_bsp_supersteps_total", "counter", "BSP supersteps run by all queries.", func(st *Stats) any { return st.Cost.Supersteps }},
	{"bsp_messages", "tagserve_bsp_messages_total", "counter", "BSP messages sent by all queries (the paper's M).", func(st *Stats) any { return st.Cost.Messages }},
	{"bsp_message_bytes", "tagserve_bsp_message_bytes_total", "counter", "Payload bytes of the BSP messages sent by all queries.", func(st *Stats) any { return st.Cost.MessageBytes }},
	{"bsp_compute_ops", "tagserve_bsp_compute_ops_total", "counter", "Units of per-vertex computation run by all queries (the paper's computation cost).", func(st *Stats) any { return st.Cost.ComputeOps }},
	{"bsp_messages_combined", "tagserve_bsp_messages_combined_total", "counter", "Logical BSP sends folded en route by a combiner.", func(st *Stats) any { return st.Cost.MessagesCombined }},
	{"bsp_inbox_bytes_saved", "tagserve_bsp_inbox_bytes_saved_total", "counter", "Inbox Message-slot bytes the folded sends never occupied.", func(st *Stats) any { return st.Cost.InboxBytesSaved }},
	{"bsp_combine_fallbacks", "tagserve_bsp_combine_fallbacks_total", "counter", "Runs where the adaptive gate dropped a rarely-folding combiner.", func(st *Stats) any { return st.Cost.CombineFallbacks }},
	{"epoch", "tagserve_epoch", "gauge", "Epoch of the currently served generation.", func(st *Stats) any { return st.Epoch }},
	{"swaps", "tagserve_generation_swaps_total", "counter", "Graph generations published since startup.", func(st *Stats) any { return st.Swaps }},
	{"write_ops", "tagserve_write_ops_total", "counter", "Write ops applied through the Maintainer.", func(st *Stats) any { return st.WriteOps }},
	{"rows_inserted", "tagserve_rows_inserted_total", "counter", "Rows inserted through the Maintainer.", func(st *Stats) any { return st.RowsInserted }},
	{"rows_deleted", "tagserve_rows_deleted_total", "counter", "Rows deleted through the Maintainer.", func(st *Stats) any { return st.RowsDeleted }},
	{"generations_live", "tagserve_generations_live", "gauge", "Published but not yet drained graph generations.", func(st *Stats) any { return st.GenerationsLive }},
	{"write_queue_depth", "tagserve_write_queue_depth", "gauge", "Writes queued or applying.", func(st *Stats) any { return st.WriteQueueDepth }},
	{"wal_records", "tagserve_wal_records_total", "counter", "WAL records appended since boot.", func(st *Stats) any { return st.WALRecords }},
	{"wal_bytes", "tagserve_wal_bytes_total", "counter", "WAL bytes appended since boot.", func(st *Stats) any { return st.WALBytes }},
	{"wal_fsyncs", "tagserve_wal_fsyncs_total", "counter", "Fsyncs issued by the WAL sync policy.", func(st *Stats) any { return st.WALFsyncs }},
	{"wal_replayed_epochs", "tagserve_wal_replayed_records", "gauge", "WAL records replayed at boot (the suffix past the checkpoint).", func(st *Stats) any { return st.WALReplayed }},
	{"wal_skipped_epochs", "tagserve_wal_skipped_records", "gauge", "WAL records at boot that the loaded checkpoint already covered.", func(st *Stats) any { return st.WALSkipped }},
	{"wal_truncations", "tagserve_wal_truncations_total", "counter", "WAL compactions (prefix rewrites after checkpoints).", func(st *Stats) any { return st.WALTruncations }},
	{"checkpoints", "tagserve_checkpoints_total", "counter", "Checkpoints written since boot.", func(st *Stats) any { return st.Checkpoints }},
	{"checkpoint_epoch", "tagserve_checkpoint_epoch", "gauge", "Epoch covered by the newest checkpoint.", func(st *Stats) any { return st.CheckpointEpoch }},
	{"checkpoint_errors", "tagserve_checkpoint_errors_total", "counter", "Checkpoint writes that failed plus invalid checkpoints skipped at boot.", func(st *Stats) any { return st.CheckpointErrors }},
	{"pinned_queries", "tagserve_pinned_queries", "gauge", "Currently pinned (subscribed) queries.", func(st *Stats) any { return st.PinnedQueries }},
	{"incremental_hits", "tagserve_incremental_hits_total", "counter", "Pinned-query epoch advances folded incrementally from the write delta.", func(st *Stats) any { return st.IncrementalHits }},
	{"incremental_fallbacks", "tagserve_incremental_fallbacks_total", "counter", "Pinned-query epoch advances that re-ran the query cold.", func(st *Stats) any { return st.IncrementalFallbacks }},
	{"incremental_mismatches", "tagserve_incremental_mismatches_total", "counter", "Verified folds that diverged from the cold run (cold answer won).", func(st *Stats) any { return st.IncrementalMismatches }},
	{"dist_parts", "tagserve_dist_parts", "gauge", "Distributed topology size, coordinator included (absent when serving locally).", func(st *Stats) any { return omitZero(st.DistParts) }},
	{"dist_degraded", "tagserve_dist_degraded", "gauge", "1 once the distributed topology lost a node (absent while healthy).", func(st *Stats) any { return omitZero(st.DistDegraded) }},
}

// omitZero drops a zero value from both views, as /stats has always
// done for the distributed gauges.
func omitZero[T comparable](v T) any {
	var zero T
	if v == zero {
		return nil
	}
	return v
}

// statsJSON is the /stats body: every present row under its JSON key.
func statsJSON(st Stats) map[string]any {
	out := make(map[string]any, len(statRows))
	for _, r := range statRows {
		if v := r.get(&st); v != nil {
			out[r.key] = v
		}
	}
	return out
}

// WriteMetrics renders the server's serving statistics in the
// Prometheus text exposition format (version 0.0.4): one series per
// statRows row, then the per-protocol query latency histograms with
// precomputed p50/p99/p999 quantile gauges.
func (s *Server) WriteMetrics(w io.Writer) {
	st := s.Stats()
	for _, r := range statRows {
		v := r.get(&st)
		if v == nil {
			continue
		}
		if b, ok := v.(bool); ok {
			v = 0
			if b {
				v = 1
			}
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", r.prom, r.help, r.prom, r.typ, r.prom, v)
	}

	// Per-protocol latency histograms, in the le-cumulative bucket form,
	// plus summary-style quantile gauges so p50/p99/p999 are readable
	// without a PromQL evaluator.
	const hname = "tagserve_query_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Query latency by serving protocol.\n# TYPE %s histogram\n", hname, hname)
	for _, proto := range []string{ProtoHTTP, ProtoBinary} {
		h := s.lat[proto]
		var cum int64
		for i, le := range latBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{protocol=%q,le=\"%g\"} %d\n", hname, proto, le, cum)
		}
		cum += h.counts[len(latBuckets)].Load()
		fmt.Fprintf(w, "%s_bucket{protocol=%q,le=\"+Inf\"} %d\n", hname, proto, cum)
		fmt.Fprintf(w, "%s_sum{protocol=%q} %g\n", hname, proto, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(w, "%s_count{protocol=%q} %d\n", hname, proto, cum)
	}
	const qname = "tagserve_query_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Query latency quantiles by serving protocol (histogram-estimated).\n# TYPE %s gauge\n", qname, qname)
	for _, proto := range []string{ProtoHTTP, ProtoBinary} {
		h := s.lat[proto]
		for _, q := range []float64{0.5, 0.99, 0.999} {
			fmt.Fprintf(w, "%s{protocol=%q,quantile=\"%g\"} %g\n", qname, proto, q, h.Quantile(q))
		}
	}
}
