package baseline

import (
	"repro/internal/relation"
	"repro/internal/sql"
)

// columnScan is the RDBMS-X In-Memory stand-in: a predicate that reads
// one column is evaluated column-at-a-time, one predicate at a time into
// a selection bitmap, before any row is materialized, accelerating
// scan-heavy filters (§8.1.3, §8.3). Other predicates are returned for
// row-wise evaluation on the survivors.
func (e *Engine) columnScan(rel *relation.Relation, preds []sql.Expr, binding sql.Binding, outer *sql.Env) ([]relation.Tuple, []sql.Expr, error) {
	var vectorized []sql.Compiled
	var rest []sql.Expr
	for _, p := range preds {
		if vectorColumn(p, rel.Schema) < 0 {
			rest = append(rest, p)
			continue
		}
		vectorized = append(vectorized, sql.Compile(p, binding))
	}
	if len(vectorized) == 0 {
		return rel.Tuples, rest, nil
	}

	sel := make([]bool, len(rel.Tuples))
	for i := range sel {
		sel[i] = true
	}
	for _, p := range vectorized {
		for i, row := range rel.Tuples {
			if !sel[i] {
				continue
			}
			v, err := p(row, outer, nil)
			if err != nil {
				return nil, nil, err
			}
			sel[i] = v.AsBool()
		}
	}
	var rows []relation.Tuple
	for i, keep := range sel {
		if keep {
			rows = append(rows, rel.Tuples[i])
		}
	}
	return rows, rest, nil
}

// vectorColumn returns the schema slot of the one column p reads, or -1
// if it reads none or several, reads an outer scope or holds a subquery.
func vectorColumn(p sql.Expr, schema *relation.Schema) int {
	if len(sql.SubSelects(p)) > 0 {
		return -1
	}
	ci := -1
	for _, c := range sql.ColRefs(p) {
		i := schema.Index(c.Column)
		if c.Depth != 0 || i < 0 || (ci >= 0 && i != ci) {
			return -1
		}
		ci = i
	}
	return ci
}

// IndexBytes estimates the footprint of B-tree PK and FK indexes over the
// catalog, as the TPC protocol prescribes for RDBMSs (§8.2, Figure 14):
// roughly one (key, row-pointer) entry per tuple per index with B-tree
// fill overhead.
func IndexBytes(cat *relation.Catalog) int {
	const entryOverhead = 16 // pointer + page slot
	const fill = 1.45        // B-tree occupancy overhead

	total := 0.0
	addIndex := func(table, column string) {
		rel := cat.Get(table)
		if rel == nil {
			return
		}
		i := rel.Schema.Index(column)
		if i < 0 {
			return
		}
		for _, t := range rel.Tuples {
			total += float64(t[i].Size()+entryOverhead) * fill
		}
	}
	for _, name := range cat.Names() {
		if pk := cat.PrimaryKey(name); pk != "" {
			addIndex(name, pk)
		}
	}
	for _, fk := range cat.ForeignKeys() {
		addIndex(fk.Table, fk.Column)
	}
	return int(total)
}

// ColumnStoreBytes estimates the in-memory columnar footprint (Table 15):
// per-column storage with dictionary compression for strings (each
// distinct string stored once plus a 4-byte code per row) and raw 8-byte
// words for numerics.
func ColumnStoreBytes(cat *relation.Catalog) int {
	total := 0
	for _, name := range cat.Names() {
		rel := cat.Get(name)
		for ci, col := range rel.Schema.Columns {
			switch col.Kind {
			case relation.KindString:
				dict := map[string]struct{}{}
				for _, t := range rel.Tuples {
					if !t[ci].IsNull() {
						dict[t[ci].S] = struct{}{}
					}
				}
				for s := range dict {
					total += len(s)
				}
				total += 4 * rel.Len()
			default:
				total += 8 * rel.Len()
			}
		}
	}
	return total
}
