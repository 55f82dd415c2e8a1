package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// stmt is one generated statement and what its answer must satisfy.
// The program under test only ever sees SQL.
type stmt struct {
	SQL  string
	Kind string // "lookup", "fixed", "scan", "tpch" or "count"
	// ID is the query id of a TPC-H statement ("q9"), Key the order key
	// of a lookup, Table the relation of a count.
	ID    string
	Key   int64
	Table string
	// Rows is the exact row count the answer must have; -1 when the
	// answer is checked another way (or changes under writes).
	Rows int
	// Want, when set, is the whole expected answer.
	Want *relation.Relation
}

// stream is an endless, per-seed deterministic statement sequence.
type stream interface {
	next() stmt
}

// sample takes the first n statements of a stream.
func sample(s stream, n int) []stmt {
	out := make([]stmt, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// classQueries returns the TPC-H statements of a workload class:
// "ga" is the global + scalar aggregation class, "join" the local- and
// no-aggregation queries, "all" the 22.
func classQueries(class string) []stmt {
	var out []stmt
	for _, q := range tpch.Queries() {
		ga := q.Class == "global" || q.Class == "scalar"
		if class == "all" || (class == "ga") == ga {
			out = append(out, stmt{SQL: q.SQL, Kind: "tpch", ID: q.ID, Rows: -1})
		}
	}
	return out
}

// cycle repeats a statement list in order: one lap is one pass.
type cycle struct {
	stmts []stmt
	i     int
}

func (c *cycle) next() stmt {
	s := c.stmts[c.i%len(c.stmts)]
	c.i++
	return s
}

// readMix is the catalog-derived part of serve_read's statement mix,
// shared by all client streams of a run.
type readMix struct {
	keys  []int64       // every order key, in a seed-shuffled popularity order
	lines map[int64]int // lineitems per order key
	fixed []stmt        // eight short statements with their whole answers
	scan  stmt          // one multi-thousand-row statement
	zipfS float64
}

const (
	lookupSQL = "SELECT o_orderkey, l_linenumber, l_quantity, l_extendedprice FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_orderkey = %d"
	scanSQL   = "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem WHERE l_quantity > 45"
)

var fixedSQL = []string{
	"SELECT COUNT(*) FROM nation",
	"SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = 7",
	"SELECT r_name FROM region WHERE r_regionkey = 2",
	"SELECT COUNT(*) FROM supplier WHERE s_nationkey = 3",
	"SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = 1",
	"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'",
	"SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 2",
	"SELECT p_name, p_retailprice FROM part WHERE p_partkey = 1",
}

// newReadMix derives the statement mix and its expected answers from
// the catalog: lookups are checked against the catalog's own rows, the
// fixed statements and the scan against the baseline engine.
func newReadMix(cat *relation.Catalog, seed int64, zipfS float64) (*readMix, error) {
	m := &readMix{lines: map[int64]int{}, zipfS: zipfS}
	for _, row := range cat.Get("orders").Tuples {
		m.keys = append(m.keys, row[0].AsInt())
	}
	if len(m.keys) < 2 {
		return nil, fmt.Errorf("benchmark: catalog has %d orders, need at least 2", len(m.keys))
	}
	sort.Slice(m.keys, func(a, b int) bool { return m.keys[a] < m.keys[b] })
	rand.New(rand.NewSource(seed)).Shuffle(len(m.keys), func(a, b int) { m.keys[a], m.keys[b] = m.keys[b], m.keys[a] })
	for _, row := range cat.Get("lineitem").Tuples {
		m.lines[row[0].AsInt()]++
	}
	ref := baseline.New(cat)
	for _, q := range append(append([]string(nil), fixedSQL...), scanSQL) {
		want, err := ref.Query(q)
		if err != nil {
			return nil, fmt.Errorf("benchmark: baseline answer for %q: %w", q, err)
		}
		s := stmt{SQL: q, Kind: "fixed", Rows: want.Len(), Want: want}
		if q == scanSQL {
			s.Kind = "scan"
			m.scan = s
		} else {
			m.fixed = append(m.fixed, s)
		}
	}
	return m, nil
}

// readStream draws serve_read's mix for one client: 60% order lookups
// with the key Zipf-distributed over all order keys (far more distinct
// statements than the prepared cache holds), 30% the fixed statements
// (always cached), 10% the scan (result encode and decode).
type readStream struct {
	mix  *readMix
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newReadStream(m *readMix, seed int64) *readStream {
	rng := rand.New(rand.NewSource(seed))
	return &readStream{mix: m, rng: rng, zipf: rand.NewZipf(rng, m.zipfS, 1, uint64(len(m.keys)-1))}
}

func (s *readStream) next() stmt {
	switch r := s.rng.Intn(10); {
	case r < 6:
		key := s.mix.keys[s.zipf.Uint64()]
		return stmt{SQL: fmt.Sprintf(lookupSQL, key), Kind: "lookup", Key: key, Rows: s.mix.lines[key]}
	case r < 9:
		return s.mix.fixed[s.rng.Intn(len(s.mix.fixed))]
	default:
		return s.mix.scan
	}
}

// writeReadStream is serve_write's reader: the 22 TPC-H statements with
// popularity Zipf-distributed in their natural order (q1 hottest: which
// statement is hot must not change with the seed, or a seed would pick
// the cost of the run), with one statement in ten a COUNT(*) the row
// ledger can check at the epoch it was answered on.
type writeReadStream struct {
	tpch []stmt
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newWriteReadStream(seed int64, zipfS float64) *writeReadStream {
	rng := rand.New(rand.NewSource(seed))
	qs := classQueries("all")
	return &writeReadStream{tpch: qs, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(qs)-1))}
}

func countSQL(table string) string { return "SELECT COUNT(*) FROM " + table }

func (s *writeReadStream) next() stmt {
	switch r := s.rng.Intn(20); r {
	case 0:
		return stmt{SQL: countSQL("orders"), Kind: "count", Table: "orders", Rows: 1}
	case 1:
		return stmt{SQL: countSQL("lineitem"), Kind: "count", Table: "lineitem", Rows: 1}
	}
	return s.tpch[s.zipf.Uint64()]
}

// checkAnswer reports whether rows is a correct answer to s, as far as s
// says what correct is.
func checkAnswer(s stmt, rows *relation.Relation) bool {
	if rows == nil {
		return false
	}
	if s.Rows >= 0 && rows.Len() != s.Rows {
		return false
	}
	switch {
	case s.Kind == "lookup":
		for _, t := range rows.Tuples {
			if t[0].AsInt() != s.Key {
				return false
			}
		}
	case s.Want != nil && s.Kind == "fixed":
		return relation.EqualMultisetFuzzy(rows, s.Want)
	}
	return true
}

// batchGen generates serve_write's insert batches: BatchOrders new
// orders and LinesPerOrder lineitems for each, cloned from catalog rows
// with fresh keys far above the generated key range.
type batchGen struct {
	rng       *rand.Rand
	orders    []relation.Tuple
	lineitems []relation.Tuple
	nextKey   int64
	nOrders   int
	nLines    int
}

func newBatchGen(cat *relation.Catalog, seed int64, p params) *batchGen {
	return &batchGen{
		rng:       rand.New(rand.NewSource(seed)),
		orders:    cat.Get("orders").Tuples,
		lineitems: cat.Get("lineitem").Tuples,
		nextKey:   1 << 40,
		nOrders:   p.BatchOrders,
		nLines:    p.LinesPerOrder,
	}
}

// next returns the rows of one batch; lineitems reference the batch's
// own orders.
func (b *batchGen) next() (orders, lineitems []relation.Tuple) {
	for i := 0; i < b.nOrders; i++ {
		key := relation.Int(b.nextKey)
		b.nextKey++
		o := b.orders[b.rng.Intn(len(b.orders))].Clone()
		o[0] = key
		orders = append(orders, o)
		for ln := 1; ln <= b.nLines; ln++ {
			l := b.lineitems[b.rng.Intn(len(b.lineitems))].Clone()
			l[0] = key
			l[3] = relation.Int(int64(ln))
			lineitems = append(lineitems, l)
		}
	}
	return orders, lineitems
}

// rowsPerBatch is the number of rows one batch inserts.
func (p params) rowsPerBatch() int { return p.BatchOrders * (1 + p.LinesPerOrder) }
