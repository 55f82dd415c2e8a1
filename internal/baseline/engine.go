// Package baseline implements the relational comparison engines of the
// reproduction: a single-node iterator-style SQL engine standing in for
// the paper's reference RDBMSs (PostgreSQL, RDBMS-X, RDBMS-Y), an optional
// column-store scan path standing in for RDBMS-X's In-Memory column store,
// and a partitioned shuffle-join configuration standing in for Spark SQL,
// with byte-level shuffle-traffic accounting (Figure 16).
//
// The engine evaluates the same analyzed SQL as the TAG-join executor and
// is used as the correctness oracle in integration tests.
package baseline

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// ShuffleConfig turns the engine into a Spark-SQL-like distributed
// executor: every hash join re-partitions both inputs across Partitions
// workers (counting moved bytes), unless one side is below
// BroadcastThreshold rows, in which case it is broadcast to every
// partition (counting size × partitions bytes).
type ShuffleConfig struct {
	Partitions         int
	BroadcastThreshold int
}

// ExecStats accumulates execution counters across queries.
type ExecStats struct {
	HashJoins      int
	NestedLoops    int
	RowsScanned    int64
	ShuffledRows   int64
	ShuffledBytes  int64
	BroadcastRows  int64
	BroadcastBytes int64
}

// NetworkBytes returns the total simulated network traffic.
func (s ExecStats) NetworkBytes() int64 { return s.ShuffledBytes + s.BroadcastBytes }

// Engine executes SQL over a catalog.
type Engine struct {
	Cat *relation.Catalog
	// ColumnStore enables column-at-a-time scan filtering (the RDBMS-X IM
	// stand-in).
	ColumnStore bool
	// Shuffle, when non-nil, makes joins shuffle/broadcast like Spark SQL.
	Shuffle *ShuffleConfig

	Stats ExecStats

	subCache map[*sql.Select]*relation.Relation
}

// New returns a row-store engine over cat.
func New(cat *relation.Catalog) *Engine { return &Engine{Cat: cat} }

// NewColumnStore returns a column-scan engine over cat.
func NewColumnStore(cat *relation.Catalog) *Engine {
	return &Engine{Cat: cat, ColumnStore: true}
}

// NewShuffle returns a Spark-SQL-like shuffle engine. The broadcast
// threshold mirrors Spark's 10MB default scaled to this reproduction's
// miniature data sizes (roughly 0.01% of the working set, so only the
// small dimension tables broadcast, as at the paper's SF-75).
func NewShuffle(cat *relation.Catalog, partitions int) *Engine {
	return &Engine{Cat: cat, Shuffle: &ShuffleConfig{Partitions: partitions, BroadcastThreshold: 32}}
}

// Query parses, analyzes and executes a SQL string.
func (e *Engine) Query(query string) (*relation.Relation, error) {
	an, err := sql.AnalyzeString(e.Cat, query)
	if err != nil {
		return nil, err
	}
	return e.Run(an)
}

// Run executes an analyzed query.
func (e *Engine) Run(an *sql.Analysis) (*relation.Relation, error) {
	e.subCache = make(map[*sql.Select]*relation.Relation)
	out, err := e.runChain(an, an.Root, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runChain executes a block and its UNION ALL continuation.
func (e *Engine) runChain(an *sql.Analysis, blk *sql.Analyzed, outer *sql.Env) (*relation.Relation, error) {
	out, err := e.runBlock(an, blk, outer)
	if err != nil {
		return nil, err
	}
	for next := blk.UnionNext; next != nil; next = next.UnionNext {
		arm, err := e.runBlock(an, next, outer)
		if err != nil {
			return nil, err
		}
		out.Tuples = append(out.Tuples, arm.Tuples...)
	}
	return out, nil
}

// subqueryFn builds the evaluator callback for blocks nested in blk.
func (e *Engine) subqueryFn(an *sql.Analysis) sql.SubqueryFn {
	var fn sql.SubqueryFn
	fn = func(sub *sql.Select, env *sql.Env) (*relation.Relation, error) {
		blk := an.Blocks[sub]
		if blk == nil {
			return nil, fmt.Errorf("baseline: unanalyzed subquery")
		}
		correlated := sql.BlockIsCorrelated(an, blk)
		if !correlated {
			if cached, ok := e.subCache[sub]; ok {
				return cached, nil
			}
		}
		out, err := e.runChain(an, blk, env)
		if err != nil {
			return nil, err
		}
		if !correlated {
			e.subCache[sub] = out
		}
		return out, nil
	}
	return fn
}

// joinKey renders a composite hash key for join/group columns using
// canonical value identity. Strings are length-prefixed, so the key is
// injective even when a value holds the separator byte.
func joinKey(vals []relation.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		k := v.Key()
		b.WriteByte(byte(k.Kind) + '0')
		if k.Kind == relation.KindString {
			b.WriteString(strconv.Itoa(len(k.S)))
			b.WriteByte(':')
		}
		b.WriteString(k.String())
	}
	return b.String()
}
