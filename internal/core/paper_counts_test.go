package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_counts.golden from this run")

// paperScales are the scales TestPaperCounts runs every query at.
var paperScales = []float64{0.5, 1, 2}

// paperCount is one golden row: a query's answer size and the paper's
// cost measures for one cold run (§8: supersteps, messages and bytes
// against IN + OUT), plus the zero-row tables the collection produced.
type paperCount struct {
	name                              string // "tpch/q9@0.5"
	rows, supersteps, messages, bytes int64
	network, in, out, empty           int64
}

func (c paperCount) String() string {
	return fmt.Sprintf("%-16s rows=%d supersteps=%d messages=%d message_bytes=%d network_bytes=%d in=%d out=%d empty=%d",
		c.name, c.rows, c.supersteps, c.messages, c.bytes, c.network, c.in, c.out, c.empty)
}

// ratio is the paper's communication measure, messages / (IN + OUT).
func (c paperCount) ratio() float64 { return float64(c.messages) / float64(c.in+c.out) }

// queryIN is Σ|R| over every alias the query binds, in every block.
func queryIN(t *testing.T, cat *relation.Catalog, query string) int64 {
	t.Helper()
	an, err := sql.AnalyzeString(cat, query)
	if err != nil {
		t.Fatal(err)
	}
	var in int64
	for _, blk := range an.Blocks {
		for _, bt := range blk.Tables {
			in += int64(cat.Get(bt.Table).Len())
		}
	}
	return in
}

// paperWorkload is one database's generator and its named queries.
type paperWorkload struct {
	db       string
	generate func(scale float64, seed int64) *relation.Catalog
	queries  [][2]string // {id, sql}
}

// paperCycle is a many-to-many triangle over TPC-H, so the golden pins
// the §6.2 pre-pass too: q5, the workload's only cycle, is a PK-FK
// cycle, which the pre-pass skips.
const paperCycle = `SELECT COUNT(*) FROM orders o1, orders o2, customer c
WHERE o1.o_custkey = c.c_custkey AND o2.o_custkey = c.c_nationkey AND o1.o_shippriority = o2.o_shippriority`

func paperWorkloads() []paperWorkload {
	var h, ds [][2]string
	for _, q := range tpch.Queries() {
		h = append(h, [2]string{q.ID, q.SQL})
	}
	h = append(h, [2]string{"cycle", paperCycle})
	for _, q := range tpcds.Queries() {
		ds = append(ds, [2]string{q.ID, q.SQL})
	}
	return []paperWorkload{
		{"tpch", tpch.Generate, h},
		{"tpcds", tpcds.Generate, ds},
	}
}

// TestPaperCounts pins the paper's cost measures for every TPC-H and
// TPC-DS query at scales 0.5, 1 and 2 (seed 2021, two workers, two
// partitions) against testdata/paper_counts.golden; `go test -run
// TestPaperCounts -update` rewrites the file. A change that moves a
// count shows as a golden diff.
//
// It also asserts the paper's communication bound for TPC-H (§5:
// O(IN + OUT) messages for an acyclic query). messages / (IN + OUT) is
// at most 1.1 at every scale, and at scales 1 and 2 at most 1.3 times
// its value at 0.5 wherever it exceeds growthFloor. Below that floor a
// query's messages follow the few tuples its selection keeps, not IN,
// and the ratio moves with how many the generator draws at each scale
// (q17 selects 1, 1 and 8 parts at scales 0.5, 1 and 2: 0.023, 0.015
// and 0.040); growth there stays far inside the first bound. The named
// exceptions are q9 for the first bound (2.06 / 1.51 / 0.76 at scales
// 0.5 / 1 / 2: its walk crosses lineitem several times, the climb from
// part and partsupp, the supplier descent and climb, the orders descent
// and climb, then DOWN) and q5 and q7 for the second (both answer
// nothing below scale 2, so their OUT is 0 at the smaller scales). The
// cyclic row is pinned but not bounded this way: its one-row COUNT(*)
// hides a join far larger than IN.
func TestPaperCounts(t *testing.T) {
	const seed = 2021
	const growthFloor = 0.1
	overRatio := map[string]bool{"tpch/q9": true}
	overGrowth := map[string]bool{"tpch/q5": true, "tpch/q7": true}

	var got []paperCount
	ratios := map[string]map[float64]float64{}
	for _, w := range paperWorkloads() {
		for _, scale := range paperScales {
			cat := w.generate(scale, seed)
			g, err := tag.Build(cat, nil)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewSession(g, bsp.Options{Workers: 2, Partitions: 2})
			for _, q := range w.queries {
				name := w.db + "/" + q[0]
				before, empty := ex.Stats(), ex.emptyTables.Load()
				res, err := ex.Query(q[1])
				if err != nil {
					t.Fatalf("%s at scale %g: %v", name, scale, err)
				}
				st := ex.Stats().Sub(before)
				c := paperCount{
					name: fmt.Sprintf("%s@%g", name, scale), rows: int64(res.Len()),
					supersteps: st.Supersteps, messages: st.Messages, bytes: st.MessageBytes,
					network: st.NetworkBytes, in: queryIN(t, cat, q[1]), out: int64(res.Len()),
					empty: ex.emptyTables.Load() - empty,
				}
				got = append(got, c)
				if w.db == "tpch" && q[1] != paperCycle {
					if ratios[name] == nil {
						ratios[name] = map[float64]float64{}
					}
					ratios[name][scale] = c.ratio()
				}
			}
		}
	}

	var buf bytes.Buffer
	buf.WriteString("# TestPaperCounts: one cold run per query, seed 2021, Workers 2, Partitions 2.\n")
	for _, c := range got {
		fmt.Fprintln(&buf, c)
	}
	path := filepath.Join("testdata", "paper_counts.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("golden line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}

	for name, at := range ratios {
		for _, scale := range paperScales {
			if r := at[scale]; r > 1.1 && !overRatio[name] {
				t.Errorf("%s at scale %g: messages/(IN+OUT) = %.3f, bound 1.1", name, scale, r)
			}
			if r, base := at[scale], at[paperScales[0]]; scale > paperScales[0] && r > 1.3*base && r > growthFloor && !overGrowth[name] {
				t.Errorf("%s at scale %g: messages/(IN+OUT) = %.3f, over 1.3x its %.3f at scale %g",
					name, scale, r, base, paperScales[0])
			}
		}
	}
}
