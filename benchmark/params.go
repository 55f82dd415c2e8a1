package main

import "runtime"

// params are the constants of a run. They are fixed in the code, written
// into every result file, and never derived from a measurement taken at
// run time: two commits are only comparable when they ran the same load.
type params struct {
	Seconds float64 `json:"seconds"` // length of the measured window

	Setups  int `json:"setups_per_run"` // set-ups per run; setup_s is their median
	Clients int `json:"clients"`        // client goroutines/connections, at most nproc

	TPCHScale   float64 `json:"tpch_scale"`
	ReadScale   float64 `json:"serve_read_scale"`
	WriteScale  float64 `json:"serve_write_scale"`
	OracleScale float64 `json:"oracle_scale"`   // TAG answers are compared with the baseline engine here
	FixedScale  float64 `json:"fixed_scale"`    // core.fixed_us runs the statements on a graph this small
	BaseScale   float64 `json:"baseline_scale"` // baseline.* passes

	WarmupGA   int `json:"tpch_ga_warmup_passes"`
	WarmupJoin int `json:"tpch_join_warmup_passes"`

	// serve_read: the measured window is split between a closed loop
	// (qps) and an open loop at OpenRate (op_ms, tail_ms). TraceRates
	// are the three open-loop rates of the traced run, about 25/50/75%
	// of the seed commit's closed-loop qps on the machine in README.md.
	ClosedShare   float64    `json:"serve_read_closed_share"`
	OpenRate      float64    `json:"serve_read_open_rate"`
	TraceRates    [3]float64 `json:"serve_read_trace_rates"`
	LatencyLimit  float64    `json:"serve_read_latency_limit_ms"` // on p99, for max_rate_ok
	ZipfS         float64    `json:"zipf_s"`
	PreparedLimit int        `json:"prepared_limit"`

	// serve_write
	BatchOrders     int     `json:"write_batch_orders"` // orders rows per batch
	LinesPerOrder   int     `json:"write_lines_per_order"`
	LiveBatches     int     `json:"write_live_batches"` // inserts are paired with deletes beyond this
	CheckpointEvery int     `json:"checkpoint_every"`
	WALSyncMS       float64 `json:"wal_sync_interval_ms"`
	RecoverBatches  int     `json:"recover_wal_batches"` // batches logged after the last checkpoint before Close

	WarmupShare float64 `json:"serve_warmup_share"` // of Seconds, before the window

	// Traced run: how many passes or operations each layer probe makes.
	ProbePasses int `json:"probe_passes"`
	ProbeOps    int `json:"probe_ops"`
}

func defaultParams(seconds float64) params {
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2 // the rates below were chosen for two clients
	}
	return params{
		Seconds:     seconds,
		Setups:      5,
		Clients:     clients,
		TPCHScale:   10,
		ReadScale:   10,
		WriteScale:  2,
		OracleScale: 1,
		FixedScale:  0.01,
		BaseScale:   2,
		WarmupGA:    2,
		WarmupJoin:  3,

		ClosedShare:   0.4,
		OpenRate:      openRate,
		TraceRates:    [3]float64{openRate / 2, openRate, openRate * 3 / 2},
		LatencyLimit:  40,
		ZipfS:         1.1,
		PreparedLimit: 1024,

		BatchOrders:     40,
		LinesPerOrder:   4,
		LiveBatches:     16,
		CheckpointEvery: 50,
		WALSyncMS:       100,
		RecoverBatches:  10,

		WarmupShare: 0.2,
		ProbePasses: 3,
		ProbeOps:    200,
	}
}

// openRate is serve_read's fixed open-loop arrival rate in requests per
// second: about half the closed-loop qps of the commit that added the
// benchmark, on the 2-core machine described in README.md. It is a
// constant on purpose. Recalibrating it at run time would let a slower
// commit be offered less load.
const openRate = 250

// smokeParams shrinks every scale and count so all four workloads and
// their traced runs finish in seconds; the numbers mean nothing, the
// code paths and the answer checks are the same.
func smokeParams(seconds float64) params {
	p := defaultParams(seconds)
	p.Setups = 2
	p.TPCHScale, p.ReadScale, p.WriteScale, p.OracleScale, p.BaseScale = 0.2, 0.2, 0.2, 0.2, 0.2
	p.WarmupGA, p.WarmupJoin = 1, 1
	p.OpenRate = 200
	p.TraceRates = [3]float64{100, 200, 300}
	p.BatchOrders, p.LiveBatches, p.CheckpointEvery, p.RecoverBatches = 5, 5, 5, 2
	p.ProbePasses, p.ProbeOps = 1, 20
	return p
}
