package bench

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/tag"
)

// TestShardedMergeMatchesSerialTPCH is the end-to-end determinism
// cross-check of the sharded message plane: every TPC-H query must
// produce byte-identical answers (same rows in the same order) and
// exactly equal cost measures — including the network dedup accounting
// under a simulated partitioning — whether the communication stage
// runs serially (a single-worker engine has one shard, merged on the
// Run goroutine) or shard-parallel.
func TestShardedMergeMatchesSerialTPCH(t *testing.T) {
	cat := generate("tpch", 0.2, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range WorkloadQueries("tpch") {
		serial := core.NewSession(g, bsp.Options{Workers: 1, Partitions: 6})
		sharded := core.NewSession(g, bsp.Options{Workers: 4, Partitions: 6})

		wantRows, err1 := serial.Query(q.SQL)
		gotRows, err2 := sharded.Query(q.SQL)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error mismatch: serial=%v sharded=%v", q.ID, err1, err2)
		}
		if err1 != nil {
			t.Fatalf("%s: %v", q.ID, err1)
		}
		want := fmt.Sprintf("%v", wantRows.Tuples)
		got := fmt.Sprintf("%v", gotRows.Tuples)
		if got != want {
			t.Errorf("%s: sharded answer differs from serial (rows or order)", q.ID)
		}
		ws, gs := serial.Stats(), sharded.Stats()
		if ws != gs {
			t.Errorf("%s: stats differ:\n  serial  %v\n  sharded %v", q.ID, ws, gs)
		}
	}
}
