package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// shapedWriter drives a server with the benchmark's serve_write shape:
// each batch is two records — fresh orders rows (carrying, once two
// batches are live, the delete of the oldest batch's orders and
// lineitems: two tables in one delete) and then their lineitems.
type shapedWriter struct {
	t       *testing.T
	m       *Maintainer
	orders  []relation.Tuple // templates
	lines   []relation.Tuple
	nextKey int64
	live    [][]bsp.VertexID
}

func newShapedWriter(t *testing.T, s *Server) *shapedWriter {
	cat := s.Graph().Catalog
	w := &shapedWriter{t: t, m: s.Maintainer(), nextKey: 1 << 40}
	for i := 0; i < 8; i++ {
		w.orders = append(w.orders, cat.Get("orders").Tuples[i].Clone())
		w.lines = append(w.lines, cat.Get("lineitem").Tuples[i].Clone())
	}
	return w
}

func (w *shapedWriter) batch() {
	w.t.Helper()
	var orders, lines []relation.Tuple
	for i := 0; i < 4; i++ {
		key := relation.Int(w.nextKey)
		w.nextKey++
		o := w.orders[(int(w.nextKey)+i)%len(w.orders)].Clone()
		o[0] = key
		orders = append(orders, o)
		for ln := 1; ln <= 3; ln++ {
			l := w.lines[(i+ln)%len(w.lines)].Clone()
			l[0], l[3] = key, relation.Int(int64(ln))
			lines = append(lines, l)
		}
	}
	op := WriteOp{Table: "orders", Insert: orders}
	if len(w.live) >= 2 {
		op.Delete, w.live = w.live[0], w.live[1:]
	}
	first, err := w.m.Apply(op)
	if err != nil {
		w.t.Fatal(err)
	}
	second, err := w.m.InsertBatch("lineitem", lines)
	if err != nil {
		w.t.Fatal(err)
	}
	w.live = append(w.live, append(first.Inserted, second.Inserted...))
}

func graphBytes(t *testing.T, g *tag.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBootReplayMatchesLiveState: a durable server checkpoints (keeping
// its full log), then logs twelve more insert+delete records and
// crashes. Booting the crash image — from the checkpoint plus the
// suffix, and by full replay without it — must rebuild a graph whose
// snapshot bytes equal the live server's at the same epoch, with the
// write counters of a record-by-record replay: one swap per record and
// the live server's ops and rows over the replayed span. A log with a
// hole in its epochs must not boot at all.
func TestBootReplayMatchesLiveState(t *testing.T) {
	dir := t.TempDir()
	build := func() *tag.Graph {
		g, err := tag.Build(tpch.Generate(0.05, 2021), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	live, err := Open(build(), Options{Sessions: 1, WALDir: dir, WALSync: wal.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	w := newShapedWriter(t, live)
	for i := 0; i < 3; i++ {
		w.batch()
	}
	if _, err := live.Maintainer().Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	atCkpt := live.Stats()
	for i := 0; i < 6; i++ {
		w.batch()
	}
	final := live.Stats()
	if final.Epoch != 18 || final.RowsDeleted == 0 {
		t.Fatalf("live epoch %d with %d rows deleted, want 18 epochs with deletes", final.Epoch, final.RowsDeleted)
	}
	want := graphBytes(t, live.Graph())
	if err := live.WAL().Close(); err != nil { // the crash: the kernel drops the flock
		t.Fatal(err)
	}

	boot := func(t *testing.T, dir string, records int64, since Stats) {
		t.Helper()
		s, err := Open(build(), Options{Sessions: 1, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st := s.Stats()
		if st.Epoch != final.Epoch || st.WALReplayed != records {
			t.Fatalf("booted at epoch %d replaying %d records, want epoch %d from %d records",
				st.Epoch, st.WALReplayed, final.Epoch, records)
		}
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"swaps", st.Swaps, final.Swaps - since.Swaps},
			{"write ops", st.WriteOps, final.WriteOps - since.WriteOps},
			{"rows inserted", st.RowsInserted, final.RowsInserted - since.RowsInserted},
			{"rows deleted", st.RowsDeleted, final.RowsDeleted - since.RowsDeleted},
		} {
			if c.got != c.want {
				t.Errorf("%s = %d, live server counted %d over the same records", c.name, c.got, c.want)
			}
		}
		if got := graphBytes(t, s.Graph()); !bytes.Equal(got, want) {
			t.Errorf("booted graph's snapshot (%d B) differs from the live server's (%d B) at epoch %d",
				len(got), len(want), final.Epoch)
		}
	}
	t.Run("checkpoint plus suffix", func(t *testing.T) {
		boot(t, copyBootDir(t, dir, true), 12, atCkpt)
	})
	t.Run("full replay", func(t *testing.T) {
		boot(t, copyBootDir(t, dir, false), 18, Stats{})
	})

	// Holes: a log missing one record mid-stream, and a log whose prefix
	// was truncated for a checkpoint that is gone.
	var recs []*wal.Record
	if _, err := wal.Replay(dir, func(r *wal.Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	for name, kept := range map[string][]*wal.Record{
		"hole mid-log":         append(append([]*wal.Record(nil), recs[:9]...), recs[10:]...),
		"lost checkpoint head": recs[6:],
	} {
		t.Run(name, func(t *testing.T) {
			d := copyBootDir(t, dir, false)
			if err := os.Remove(filepath.Join(d, "wal.log")); err != nil {
				t.Fatal(err)
			}
			lw, err := wal.Open(d, wal.Options{Policy: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range kept {
				if err := lw.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := lw.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := Open(build(), Options{Sessions: 1, WALDir: d})
			if err == nil {
				s.Close()
				t.Fatal("a log with an epoch hole booted")
			}
			if !strings.Contains(err.Error(), "for logged epoch") {
				t.Fatalf("hole refused with %q, want the replay epoch check", err)
			}
		})
	}
}
