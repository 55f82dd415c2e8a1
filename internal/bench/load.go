package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/relation"
	"repro/internal/tag"
)

// LoadResult holds the Table 1/2 loading times and Figure 14 loaded sizes
// for one workload at one scale.
type LoadResult struct {
	Workload string
	Scale    float64

	// Loading times. Row-store load includes building hash indexes on
	// every declared PK/FK (the TPC protocol's index creation, §8.2);
	// column-store load includes the dictionary-compression pass; TAG
	// load is the full graph encoding.
	RowLoad time.Duration
	ColLoad time.Duration
	TAGLoad time.Duration

	// Loaded sizes in bytes (Figure 14 / Table 15).
	RawBytes      int
	RowBytes      int // raw + PK/FK index estimate
	ColStoreBytes int
	TAGBytes      int
}

// MeasureLoad runs the loading experiment for one workload and scale.
func MeasureLoad(workload string, scale float64, seed int64) (LoadResult, error) {
	res := LoadResult{Workload: workload, Scale: scale}

	// Row store: materialize the catalog and build PK/FK hash indexes.
	start := time.Now()
	cat := generate(workload, scale, seed)
	buildHashIndexes(cat)
	res.RowLoad = time.Since(start)
	res.RawBytes = cat.TotalBytes()
	res.RowBytes = res.RawBytes + baseline.IndexBytes(cat)

	// Column store: run the dictionary-compression sizing pass.
	start = time.Now()
	res.ColStoreBytes = baseline.ColumnStoreBytes(cat)
	res.ColLoad = res.RowLoad + time.Since(start)

	// TAG graph: full encoding (fresh catalog so generation cost is
	// counted identically).
	start = time.Now()
	cat2 := generate(workload, scale, seed)
	g, err := tag.Build(cat2, nil)
	if err != nil {
		return res, err
	}
	res.TAGLoad = time.Since(start)
	res.TAGBytes = g.ByteSize()
	return res, nil
}

// buildHashIndexes simulates RDBMS index creation over declared keys.
func buildHashIndexes(cat *relation.Catalog) {
	index := func(table, column string) {
		rel := cat.Get(table)
		if rel == nil {
			return
		}
		i := rel.Schema.Index(column)
		if i < 0 {
			return
		}
		idx := make(map[relation.Ident][]int, rel.Len())
		for r, t := range rel.Tuples {
			idx[t[i].Ident()] = append(idx[t[i].Ident()], r)
		}
		_ = idx
	}
	for _, name := range cat.Names() {
		if pk := cat.PrimaryKey(name); pk != "" {
			index(name, pk)
		}
	}
	for _, fk := range cat.ForeignKeys() {
		index(fk.Table, fk.Column)
	}
}

// PrintLoad renders the Table 1/2 + Figure 14 report.
func PrintLoad(w io.Writer, results []LoadResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "\nTables 1/2 — %s loading times (ms) and Figure 14 loaded sizes (KB)\n", results[0].Workload)
	fmt.Fprintf(w, "%-8s %10s %10s %10s | %10s %10s %10s %10s\n",
		"scale", "row_ms", "col_ms", "tag_ms", "raw_kb", "row+idx_kb", "col_kb", "tag_kb")
	for _, r := range results {
		fmt.Fprintf(w, "%-8.2g %10.2f %10.2f %10.2f | %10d %10d %10d %10d\n",
			r.Scale, ms(r.RowLoad), ms(r.ColLoad), ms(r.TAGLoad),
			r.RawBytes/1024, r.RowBytes/1024, r.ColStoreBytes/1024, r.TAGBytes/1024)
	}
}
