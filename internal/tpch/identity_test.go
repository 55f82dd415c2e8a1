package tpch

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
	cat := Generate(0.2, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
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

// TestCombinedMatchesUncombinedTPCH is the end-to-end cross-check of
// Send-time combining, the same way the sharded merge is cross-checked:
// every TPC-H query under a simulated partitioning must produce
// byte-identical answers (same rows in the same order) and exactly
// equal paper-facing cost measures whether the message plane folds
// aggregator-bound sends or materializes every message — except the
// network counters, which price the sealed wire frames and therefore
// legitimately differ: folding's entire purpose is to put fewer
// records on the wire. For those the check is directional (combined
// never ships more records). The fold itself must show up on the
// aggregate-heavy suite.
func TestCombinedMatchesUncombinedTPCH(t *testing.T) {
	cat := Generate(0.2, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	var totalCombined int64
	for _, q := range Queries() {
		plain := core.NewSession(g, bsp.Options{Workers: 4, Partitions: 6, NoCombine: true})
		combined := core.NewSession(g, bsp.Options{Workers: 4, Partitions: 6})

		wantRows, err1 := plain.Query(q.SQL)
		gotRows, err2 := combined.Query(q.SQL)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error mismatch: plain=%v combined=%v", q.ID, err1, err2)
		}
		if err1 != nil {
			t.Fatalf("%s: %v", q.ID, err1)
		}
		want := fmt.Sprintf("%v", wantRows.Tuples)
		got := fmt.Sprintf("%v", gotRows.Tuples)
		if got != want {
			t.Errorf("%s: combined answer differs from uncombined (rows or order)", q.ID)
		}
		ps, cs := plain.Stats(), combined.Stats()
		pp, cp := ps.Paper(), cs.Paper()
		if cp.NetworkMessages > pp.NetworkMessages {
			t.Errorf("%s: combining increased wire records: %d > %d", q.ID, cp.NetworkMessages, pp.NetworkMessages)
		}
		pp.NetworkMessages, pp.NetworkBytes = 0, 0
		cp.NetworkMessages, cp.NetworkBytes = 0, 0
		if pp != cp {
			t.Errorf("%s: paper-facing stats differ:\n  plain    %v\n  combined %v", q.ID, ps, cs)
		}
		if ps.MessagesCombined != 0 {
			t.Errorf("%s: NoCombine session folded %d messages", q.ID, ps.MessagesCombined)
		}
		if cs.InboxBytesSaved < cs.MessagesCombined*24 {
			t.Errorf("%s: saved bytes %d below the Message-slot floor for %d folds",
				q.ID, cs.InboxBytesSaved, cs.MessagesCombined)
		}
		totalCombined += cs.MessagesCombined
	}
	if totalCombined == 0 {
		t.Error("no TPC-H query folded a single message; combiners are not wired in")
	}
}
