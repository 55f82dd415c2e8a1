package scenario

import (
	"fmt"
	"time"

	tpchwl "repro/internal/tpch"
)

// Matrix is the declared scenario table. Every row is data: a name, a
// tier, and steps from the closed vocabulary — adding coverage for a
// new feature means appending a row here, not writing runner code.
// Quick rows are the CI smoke matrix; Full adds soak-length variants.
func Matrix() []Scenario {
	// heavySQL is a query slow enough (a six-way join with aggregation;
	// ~5ms at the quick-tier scale, the slowest of the 22) that a 1ms
	// deadline reliably fires mid-run and a single session stays busy
	// long past a small -admit-wait. TPC-H Q9, verbatim from the
	// workload, so the scenario exercises a statement the planner
	// actually serves.
	var heavySQL string
	for _, q := range tpchwl.Queries() {
		if q.ID == "q9" {
			heavySQL = q.SQL
		}
	}

	countMarker := fmt.Sprintf("SELECT COUNT(*) FROM nation WHERE n_comment = '%s'", Marker)
	countMarkerDS := fmt.Sprintf("SELECT COUNT(*) FROM warehouse WHERE w_state = '%s'", Marker)
	selectBig := fmt.Sprintf("SELECT n_nationkey FROM nation WHERE n_comment = '%s'", Marker)
	nationRow := func(key int64, name string) []any { return []any{key, name, 1, Marker} }

	return []Scenario{
		{
			Name: "kill9-replay-exact",
			Tier: Quick,
			Doc:  "kill -9 after acked writes; restart replays to the exact pre-crash epoch",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				Query{SQL: countMarker, WantCell: "3"},
				Kill{},
				Restart{},
				AssertEpoch{Acked: true},
				StatsEq{Field: "wal_replayed_epochs", Want: 3},
				Query{SQL: countMarker, WantLedger: true, EpochAcked: true},
			},
		},
		{
			Name: "kill9-midwrite",
			Tier: Quick,
			Doc:  "kill -9 lands mid write stream; no acked write may be lost",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always")},
				Load{Table: "nation", Row: []any{Key, "HOT", 1, Mark}, Writers: 4,
					Duration: 5 * time.Second, Background: true, TolerateCrash: true},
				Sleep{D: 400 * time.Millisecond},
				Kill{},
				AwaitLoad{},
				Restart{},
				AssertEpoch{AckedMin: true},
				Query{SQL: countMarker, WantLedgerMin: true},
				Health{},
			},
		},
		{
			Name: "graceful-sigterm",
			Tier: Quick,
			Doc:  "SIGTERM exits 0 with the WAL closed cleanly; nothing replays as torn",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "interval")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Stop{},
				Restart{},
				AssertEpoch{Acked: true},
				StatsEq{Field: "wal_replayed_epochs", Want: 2},
				Query{SQL: countMarker, WantLedger: true},
			},
		},
		{
			Name: "torn-wal-tail",
			Tier: Quick,
			Doc:  "a crash-torn last record is truncated at boot; the valid prefix replays",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				Write{Table: "nation", Rows: [][]any{nationRow(903, "SCEN-D")}},
				Write{Table: "nation", Rows: [][]any{nationRow(904, "SCEN-E")}},
				Kill{},
				TruncateFile{Glob: "wal/wal.log", Trim: 3},
				Restart{},
				AssertEpoch{Acked: true, AckedDelta: -1},
				StatsEq{Field: "wal_replayed_epochs", Want: 4},
				Query{SQL: countMarker, WantCell: "4"},
			},
		},
		{
			Name: "bitflip-wal-tail",
			Tier: Quick,
			Doc:  "a bit-flipped last record fails its CRC and is dropped, not replayed",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				Kill{},
				CorruptFile{Glob: "wal/wal.log", Offset: -5},
				Restart{},
				AssertEpoch{Acked: true, AckedDelta: -1},
				StatsEq{Field: "wal_replayed_epochs", Want: 2},
				Query{SQL: countMarker, WantCell: "2"},
			},
		},
		{
			Name: "crash-during-checkpointing",
			Tier: Quick,
			Doc:  "kill -9 while the periodic checkpointer runs; boot state is still exact",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always", "-checkpoint-interval", "2")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				Write{Table: "nation", Rows: [][]any{nationRow(903, "SCEN-D")}},
				Write{Table: "nation", Rows: [][]any{nationRow(904, "SCEN-E")}},
				WaitStats{Field: "checkpoints", Min: 1},
				Kill{},
				Restart{},
				AssertEpoch{Acked: true},
				StatsMin{Field: "checkpoint_epoch", Min: 2},
				Query{SQL: countMarker, WantLedger: true, EpochAcked: true},
			},
		},
		{
			Name: "kill9-replay-deletes",
			Tier: Quick,
			Doc:  "kill -9 after delete-carrying writes past a checkpoint; restart replays them to the exact epoch",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always", "-checkpoint-interval", "2")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				WaitStats{Field: "checkpoints", Min: 1},
				// Each write deletes the rows the previous one inserted, the
				// first of them a row the checkpoint already holds.
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C"), nationRow(903, "SCEN-D")}, DeletePrev: true},
				Write{Table: "nation", Rows: [][]any{nationRow(904, "SCEN-E")}, DeletePrev: true},
				Write{Table: "nation", Rows: [][]any{nationRow(905, "SCEN-F")}, DeletePrev: true},
				Query{SQL: countMarker, WantCell: "2"},
				Kill{},
				Restart{},
				AssertEpoch{Acked: true},
				StatsMin{Field: "wal_replayed_epochs", Min: 1},
				Query{SQL: countMarker, WantLedger: true, EpochAcked: true},
			},
		},
		{
			Name: "checkpoint-boot-skips-replay",
			Tier: Quick,
			Doc:  "boot from a checkpoint replays only the WAL suffix past it",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always",
					"-checkpoint-interval", "3", "-checkpoint-truncate=false")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				WaitStats{Field: "checkpoints", Min: 1},
				Write{Table: "nation", Rows: [][]any{nationRow(903, "SCEN-D")}},
				Write{Table: "nation", Rows: [][]any{nationRow(904, "SCEN-E")}},
				Stop{},
				Restart{},
				AssertEpoch{Acked: true},
				StatsMin{Field: "wal_skipped_epochs", Min: 3},
				StatsEq{Field: "wal_replayed_epochs", Want: 2},
				Query{SQL: countMarker, WantLedger: true},
			},
		},
		{
			Name: "corrupt-checkpoint-fallback",
			Tier: Quick,
			Doc:  "a bit-flipped checkpoint is skipped; boot falls back to full WAL replay",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always",
					"-checkpoint-interval", "3", "-checkpoint-truncate=false")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				WaitStats{Field: "checkpoints", Min: 1},
				Write{Table: "nation", Rows: [][]any{nationRow(903, "SCEN-D")}},
				Write{Table: "nation", Rows: [][]any{nationRow(904, "SCEN-E")}},
				Stop{},
				CorruptFile{Glob: "wal/checkpoint-*.ckpt", Offset: -8},
				Restart{},
				StatsMin{Field: "checkpoint_errors", Min: 1},
				StatsEq{Field: "wal_replayed_epochs", Want: 5},
				AssertEpoch{Acked: true},
				Query{SQL: countMarker, WantLedger: true},
			},
		},
		{
			Name: "corrupt-checkpoint-failclosed",
			Tier: Quick,
			Doc:  "corrupt checkpoint + truncated log = a hole in history; boot refuses loudly",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always", "-checkpoint-interval", "3")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				WaitStats{Field: "checkpoints", Min: 1},
				WaitStats{Field: "wal_truncations", Min: 1},
				Write{Table: "nation", Rows: [][]any{nationRow(903, "SCEN-D")}},
				Write{Table: "nation", Rows: [][]any{nationRow(904, "SCEN-E")}},
				Stop{},
				CorruptFile{Glob: "wal/checkpoint-*.ckpt", Offset: -8},
				ExpectStartFail{Reuse: "main", WantStderr: "for logged epoch"},
			},
		},
		{
			Name: "foreign-base-refused",
			Tier: Quick,
			Doc:  "a WAL dir is bound to its base; a different seed against it is refused",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Stop{},
				ExpectStartFail{
					Flags:      []string{"-db", "tpch", "-scale", scenarioScale, "-seed", "13", "-addr", "127.0.0.1:0", "-wal", "{dir}/wal"},
					WantStderr: "different base catalog",
				},
			},
		},
		{
			Name: "second-writer-refused",
			Tier: Quick,
			Doc:  "the WAL dir flock refuses a second live writer instead of corrupting the log",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal")},
				ExpectStartFail{Reuse: "main", WantStderr: "already has a live writer"},
				Health{}, // the first writer is unharmed
			},
		},
		{
			Name: "sql-fuzz-4xx",
			Tier: Quick,
			Doc:  "hostile SQL and malformed /query requests: always 4xx+JSON, never 500 or a crash",
			Steps: []Step{
				Start{Flags: tpch()},
				BadRequest{Body: `{"sql": ""}`, WantStatus: 400},
				BadRequest{Body: `{"sql": "SELECT"}`},
				BadRequest{Body: `{"sql": "SELECT * FROM no_such_table"}`},
				BadRequest{Body: `{"sql": "SELECT no_such_column FROM nation"}`},
				BadRequest{Body: `{"sql": "SELECT COUNT(*) FROM nation WHERE n_comment = 'unterminated"}`},
				BadRequest{Body: `{"sql": "SELECT ((((((((( FROM nation"}`},
				BadRequest{Body: `{"sql": "DROP TABLE nation"}`},
				BadRequest{Body: `{"sql": "SELECT n_name FROM nation; SELECT n_name FROM nation"}`},
				BadRequest{Body: `{"sql": 42}`, WantStatus: 400},
				BadRequest{Body: `{bad json`, WantStatus: 400},
				BadRequest{Method: "DELETE", Path: "/query", Body: `{"sql": "SELECT n_name FROM nation"}`, WantStatus: 405},
				BadRequest{Method: "GET", Path: "/query", WantStatus: 400}, // missing sql
				BadRequest{Method: "POST", Path: "/stats", WantStatus: 405},
				StatsMin{Field: "errors", Min: 5},
				Health{},
				Query{SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"}, // still serving
			},
		},
		{
			Name: "write-fuzz-4xx",
			Tier: Quick,
			Doc:  "malformed /write payloads: always 4xx+JSON, nothing ever half-applied",
			Steps: []Step{
				Start{Flags: tpch()},
				BadRequest{Path: "/write", Body: `{"table": "nation", "insert": [[`, WantStatus: 400},
				BadRequest{Path: "/write", Body: `{"table": "no_such_table", "insert": [[1, "A", 1, "c"]]}`, WantStatus: 422},
				BadRequest{Path: "/write", Body: `{"table": "nation", "insert": [[1, "A"]]}`, WantStatus: 422},           // arity
				BadRequest{Path: "/write", Body: `{"table": "nation", "insert": [["x", "A", 1, "c"]]}`, WantStatus: 422}, // string into INT
				BadRequest{Path: "/write", Body: `{"table": "nation", "insert": [[1.5, "A", 1, "c"]]}`, WantStatus: 422}, // fractional INT
				BadRequest{Path: "/write", Body: `{"table": "nation", "insert": [[1, true, 1, "c"]]}`, WantStatus: 422},  // bool into STRING
				BadRequest{Path: "/write", Body: `{"table": "nation", "insert": [[1, "A", 1, ["c"]]]}`, WantStatus: 422}, // array cell
				BadRequest{Path: "/write", Body: `{"table": "nation", "insert": [["999999999999999999999", "A", 1, "c"]]}`, WantStatus: 422},
				BadRequest{Path: "/write", Body: `{"delete": [-1]}`, WantStatus: 422},
				BadRequest{Path: "/write", Body: `{"delete": [99999999999]}`, WantStatus: 422},
				BadRequest{Path: "/write", Body: `{"delete": [123456789]}`, WantStatus: 422},        // in range, no such vertex
				BadRequest{Path: "/write", Body: `{"insert": [[1, "A", 1, "c"]]}`, WantStatus: 422}, // no table
				BadRequest{Path: "/write", Body: `{}`, WantStatus: 422},                             // empty write
				BadRequest{Method: "GET", Path: "/write", WantStatus: 405},
				AssertEpoch{Want: 0}, // nothing landed
				Query{SQL: countMarker, WantCell: "0"},
				Health{},
			},
		},
		{
			Name: "pinned-query-replay",
			Tier: Quick,
			Doc:  "a -pin'd query's maintained answer stays byte-identical to cold runs across writes and a kill -9 + WAL replay",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always",
					"-verify-incremental", "-pin", countMarker)},
				Subscribe{SQL: countMarker, WantIncremental: true},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				PinnedAnswer{SQL: countMarker, WantCell: "3", MatchCold: true, EpochAcked: true},
				StatsMin{Field: "incremental_hits", Min: 3},
				StatsEq{Field: "incremental_mismatches", Want: 0},
				Kill{},
				Restart{}, // same flags: WAL replays, then -pin re-subscribes at the recovered epoch
				AssertEpoch{Acked: true},
				PinnedAnswer{SQL: countMarker, WantCell: "3", MatchCold: true, EpochAcked: true},
				Write{Table: "nation", Rows: [][]any{nationRow(903, "SCEN-D")}},
				PinnedAnswer{SQL: countMarker, WantCell: "4", MatchCold: true, EpochAcked: true},
				StatsMin{Field: "incremental_hits", Min: 1},
				StatsEq{Field: "incremental_mismatches", Want: 0},
				Health{},
			},
		},
		{
			Name: "subscribe-fuzz-4xx",
			Tier: Quick,
			Doc:  "hostile /subscribe traffic: always 4xx+JSON, never 500, epoch unmoved, nothing pinned",
			Steps: []Step{
				Start{Flags: tpch()},
				BadRequest{Path: "/subscribe", Body: `{bad json`, WantStatus: 400},
				BadRequest{Path: "/subscribe", Body: `{"sql": ""}`, WantStatus: 400},
				BadRequest{Path: "/subscribe", Body: `{"sql": 42}`, WantStatus: 400},
				BadRequest{Path: "/subscribe", Body: `{"sql": "SELECT"}`, WantStatus: 422},
				BadRequest{Path: "/subscribe", Body: `{"sql": "SELECT * FROM no_such_table"}`, WantStatus: 422},
				BadRequest{Path: "/subscribe", Body: `{"sql": "DROP TABLE nation"}`, WantStatus: 422},
				BadRequest{Method: "GET", Path: "/subscribe", WantStatus: 400},            // missing fp
				BadRequest{Method: "GET", Path: "/subscribe?fp=no-such", WantStatus: 404}, // unknown pin
				BadRequest{Method: "GET", Path: "/subscribe?fp=x&wait_ms=abc", WantStatus: 400},
				BadRequest{Method: "GET", Path: "/subscribe?fp=x&wait_ms=-5", WantStatus: 400},
				BadRequest{Method: "GET", Path: "/subscribe?fp=x&after=-1", WantStatus: 400},
				BadRequest{Method: "DELETE", Path: "/subscribe", WantStatus: 400},
				BadRequest{Method: "DELETE", Path: "/subscribe?fp=no-such", WantStatus: 404},
				BadRequest{Method: "PUT", Path: "/subscribe", Body: `{"sql": "SELECT n_name FROM nation"}`, WantStatus: 405},
				AssertEpoch{Want: 0},
				StatsEq{Field: "pinned_queries", Want: 0},
				Health{},
				Query{SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"}, // still serving
			},
		},
		{
			Name: "triangles-scale",
			Tier: Quick,
			Doc:  "cyclic triangle count at scale: every θ variant must match the brute-force count",
			Steps: []Step{
				ExampleRun{Name: "triangles", Args: []string{"-nodes", "200", "-edges", "1200"},
					Want: []string{"verified OK at every θ", "cyclic=true"}},
			},
		},
		{
			Name: "components-scale",
			Tier: Quick,
			Doc:  "BSP label-propagation connected components, verified against union-find at 1 and 4 workers",
			Steps: []Step{
				ExampleRun{Name: "components", Args: []string{"-nodes", "20000", "-edges", "30000"},
					Want: []string{"verified OK"}},
			},
		},
		{
			Name: "combiners",
			Tier: Quick,
			Doc:  "Send-time folding gives the unfolded plane's answers, at the raw BSP level and through a SQL aggregation",
			Steps: []Step{
				ExampleRun{Name: "combiners",
					Want: []string{"identical on both planes", "byte-identical answers"}},
			},
		},
		{
			Name: "bigint-string-roundtrip",
			Tier: Quick,
			Doc:  "INTs beyond 2^53 round-trip through their decimal-string form and survive replay",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always")},
				Write{Table: "nation", Rows: [][]any{{"9007199254740995", "BIG-A", 1, Marker}}},
				Query{SQL: selectBig, WantCell: "9007199254740995"},
				Write{Table: "nation", Rows: [][]any{{"-9007199254740997", "BIG-B", 1, Marker}}, DeletePrev: true},
				Query{SQL: selectBig, WantCell: "-9007199254740997"},
				Query{SQL: countMarker, WantCell: "1"},
				Kill{},
				Restart{},
				AssertEpoch{Acked: true},
				Query{SQL: selectBig, WantCell: "-9007199254740997"},
				Query{SQL: countMarker, WantLedger: true},
			},
		},
		{
			Name: "hotkey-skew",
			Tier: Quick,
			Doc:  "zipf-skewed insert/delete stream with concurrent readers; ledger stays exact",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "interval", "-sessions", "4")},
				Load{Table: "nation", Row: []any{Key, "HOT", 1, Mark}, SQL: countMarker,
					Writers: 4, Readers: 2, Duration: 1200 * time.Millisecond,
					Zipf: 1.3, Keys: 8, DeleteFrac: 0.3},
				Query{SQL: countMarker, WantLedger: true},
				AssertEpoch{Acked: true},
				StatsEq{Field: "errors", Want: 0},
				Health{},
			},
		},
		{
			Name: "multi-tenant-mixed",
			Tier: Quick,
			Doc:  "TPC-H and TPC-DS servers under simultaneous write+read load, each exact",
			Steps: []Step{
				Start{Server: "tpch", Flags: tpch()},
				Start{Server: "tpcds", Flags: []string{"-db", "tpcds", "-scale", scenarioScale, "-seed", "7", "-addr", "127.0.0.1:0", "-sessions", "2"}},
				Load{Server: "tpch", Table: "nation", Row: []any{Key, "HOT", 1, Mark}, SQL: countMarker,
					Writers: 2, Readers: 1, Duration: time.Second, Background: true},
				Load{Server: "tpcds", Table: "warehouse", Row: []any{Key, Mark}, SQL: countMarkerDS,
					Writers: 2, Readers: 1, Duration: time.Second},
				AwaitLoad{Server: "tpch"},
				Query{Server: "tpch", SQL: countMarker, WantLedger: true},
				Query{Server: "tpcds", SQL: countMarkerDS, WantLedger: true},
				StatsEq{Server: "tpch", Field: "errors", Want: 0},
				StatsEq{Server: "tpcds", Field: "errors", Want: 0},
				Health{Server: "tpch"},
				Health{Server: "tpcds"},
			},
		},
		{
			Name: "proto-fuzz-barrage",
			Tier: Quick,
			Doc:  "hostile binary frames (bad magic, huge length, CRC flip, truncation): typed error or close, never a crash",
			Steps: []Step{
				Start{Flags: tpch("-proto-addr", "127.0.0.1:0")},
				ProtoFuzz{SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"},
				Health{},
				Query{SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"}, // HTTP surface also unharmed
			},
		},
		{
			Name: "worker-death-mid-superstep",
			Tier: Quick,
			Doc:  "SIGKILL one worker of a live topology under query load: typed errors, sticky 503, survivors stay up",
			Steps: []Step{
				Start{Server: "coord", Flags: tpch("-workers", "2", "-dist-addr", "127.0.0.1:0")},
				Start{Server: "w1", Flags: []string{"-worker", "{dist:coord}", "-addr", "127.0.0.1:0"}},
				Start{Server: "w2", Flags: []string{"-worker", "{dist:coord}", "-addr", "127.0.0.1:0"}},
				Query{Server: "coord", SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"},
				KillWorkerUnderQuery{Server: "coord", Victim: "w1", SQL: heavySQL},
				Health{Server: "coord"},
				Health{Server: "w2"}, // the survivor left the query plane but stays diagnosable
				// Degradation is sticky and the refusal stays clean: no
				// rejoin, every later query is a typed 503.
				Query{Server: "coord", SQL: "SELECT COUNT(*) FROM nation", WantStatus: 503},
				Query{Server: "coord", SQL: heavySQL, WantStatus: 503},
			},
		},
		{
			Name: "dist-frame-fuzz",
			Tier: Quick,
			Doc:  "hostile frames at the cluster port (garbage, bad magic, huge length, truncation): refused, barrier never wedges",
			Steps: []Step{
				Start{Server: "coord", Flags: tpch("-workers", "1", "-dist-addr", "127.0.0.1:0")},
				Start{Server: "w1", Flags: []string{"-worker", "{dist:coord}", "-addr", "127.0.0.1:0"}},
				Query{Server: "coord", SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"},
				DistFuzz{Server: "coord", SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"},
				Health{Server: "coord"},
				Health{Server: "w1"},
			},
		},
		{
			Name: "pool-exhaustion-429",
			Tier: Quick,
			Doc:  "queries beyond the session pool past -admit-wait get 429 + Retry-After; service recovers untouched",
			Steps: []Step{
				// Scale 0.2, not the usual quick-tier 0.05: the heavy query must
				// hold the one session longer than the Go async-preemption
				// quantum (~10ms), or on a single-CPU host the handlers simply
				// serialize — each reaches admission only after the previous
				// query released the session, and nobody ever waits long enough
				// to be refused. q9 runs ~13ms at 0.2 vs ~5ms at 0.05.
				Start{Flags: []string{"-db", "tpch", "-scale", "0.2", "-seed", "7", "-addr", "127.0.0.1:0",
					"-sessions", "1", "-admit-wait", "5ms"}},
				Overload{SQL: heavySQL, Clients: 8},
				StatsMin{Field: "rejected", Min: 1},
				StatsEq{Field: "in_flight", Want: 0}, // every refusal and every success released its slot
				Query{SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"},
				Health{},
			},
		},
		{
			Name: "deadline-408-no-leak",
			Tier: Quick,
			Doc:  "a 1ms deadline aborts a heavy query with 408; no in-flight session leaks and the pool keeps serving",
			Steps: []Step{
				Start{Flags: tpch()},
				Query{SQL: heavySQL, DeadlineMS: 1, WantTimeout: true},
				StatsMin{Field: "canceled", Min: 1},
				StatsEq{Field: "in_flight", Want: 0},
				Query{SQL: "SELECT COUNT(*) FROM nation", WantCell: "25"}, // the timed-out session is clean and reusable
				Health{},
			},
		},
		{
			Name: "crash-loop",
			Tier: Full,
			Doc:  "three kill/replay cycles in a row; the epoch chain never misses a link",
			Steps: []Step{
				Start{Flags: tpch("-wal", "{dir}/wal", "-wal-sync", "always")},
				Write{Table: "nation", Rows: [][]any{nationRow(900, "SCEN-A")}},
				Write{Table: "nation", Rows: [][]any{nationRow(901, "SCEN-B")}},
				Kill{}, Restart{},
				Write{Table: "nation", Rows: [][]any{nationRow(902, "SCEN-C")}},
				Write{Table: "nation", Rows: [][]any{nationRow(903, "SCEN-D")}},
				Kill{}, Restart{},
				Write{Table: "nation", Rows: [][]any{nationRow(904, "SCEN-E")}},
				Write{Table: "nation", Rows: [][]any{nationRow(905, "SCEN-F")}},
				Kill{}, Restart{},
				AssertEpoch{Acked: true},
				Query{SQL: countMarker, WantLedger: true},
			},
		},
		{
			Name: "hotkey-skew-soak",
			Tier: Full,
			Doc:  "longer, wider skewed stream at a bigger scale",
			Steps: []Step{
				Start{Flags: []string{"-db", "tpch", "-scale", "0.2", "-seed", "7", "-addr", "127.0.0.1:0",
					"-sessions", "4", "-wal", "{dir}/wal", "-wal-sync", "interval"}},
				Load{Table: "nation", Row: []any{Key, "HOT", 1, Mark}, SQL: countMarker,
					Writers: 8, Readers: 4, Duration: 6 * time.Second,
					Zipf: 1.5, Keys: 4, DeleteFrac: 0.4},
				Query{SQL: countMarker, WantLedger: true},
				AssertEpoch{Acked: true},
				StatsEq{Field: "errors", Want: 0},
			},
		},
		{
			Name: "triangles-scale-soak",
			Tier: Full,
			Doc:  "the triangle drill at a larger follower graph",
			Steps: []Step{
				ExampleRun{Name: "triangles", Args: []string{"-nodes", "400", "-edges", "3000"},
					Want: []string{"verified OK at every θ", "cyclic=true"}, Timeout: 10 * time.Minute},
			},
		},
		{
			Name: "components-scale-soak",
			Tier: Full,
			Doc:  "connected components on a graph 10x the quick row",
			Steps: []Step{
				ExampleRun{Name: "components", Args: []string{"-nodes", "200000", "-edges", "300000"},
					Want: []string{"verified OK"}, Timeout: 10 * time.Minute},
			},
		},
		{
			Name: "kill9-midwrite-tpcds",
			Tier: Full,
			Doc:  "the mid-write crash drill on the TPC-DS catalog",
			Steps: []Step{
				Start{Flags: []string{"-db", "tpcds", "-scale", scenarioScale, "-seed", "7", "-addr", "127.0.0.1:0",
					"-sessions", "2", "-wal", "{dir}/wal", "-wal-sync", "always"}},
				Load{Table: "warehouse", Row: []any{Key, Mark}, Writers: 4,
					Duration: 5 * time.Second, Background: true, TolerateCrash: true},
				Sleep{D: 400 * time.Millisecond},
				Kill{},
				AwaitLoad{},
				Restart{},
				AssertEpoch{AckedMin: true},
				Query{SQL: countMarkerDS, WantLedgerMin: true},
				Health{},
			},
		},
	}
}

// scenarioScale is the data scale quick rows boot at — big enough for
// real queries, small enough that a scenario's dominant cost is the
// script, not the load.
const scenarioScale = "0.05"

// tpch builds the standard quick-tier tagserve argv plus extras.
func tpch(extra ...string) []string {
	base := []string{"-db", "tpch", "-scale", scenarioScale, "-seed", "7", "-addr", "127.0.0.1:0", "-sessions", "2"}
	return append(base, extra...)
}
