package sql

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// BoundTable is one FROM-clause binding after analysis.
type BoundTable struct {
	Alias  string // lower-cased binding name
	Table  string // lower-cased relation name
	Schema *relation.Schema
}

// Analyzed is the analysis result for one query block.
type Analyzed struct {
	Sel      *Select
	Tables   []BoundTable
	OutNames []string
	OutKinds []relation.Kind
	HasAgg   bool
	// Aggregates in SELECT items and HAVING, in discovery order.
	Aggregates []*FuncCall
	// Parent is the enclosing block for correlated subqueries (nil at root).
	Parent *Analyzed
	// Next arm of a UNION ALL chain.
	UnionNext *Analyzed
}

// Analysis is the whole-query analysis: the root block plus every
// subquery block, addressable by its AST node.
type Analysis struct {
	Catalog *relation.Catalog
	Root    *Analyzed
	Blocks  map[*Select]*Analyzed
}

// Analyze resolves names and infers output schemas for sel and all of its
// subqueries against the catalog.
func Analyze(cat *relation.Catalog, sel *Select) (*Analysis, error) {
	a := &Analysis{Catalog: cat, Blocks: make(map[*Select]*Analyzed)}
	root, err := a.analyzeBlock(sel, nil)
	if err != nil {
		return nil, err
	}
	a.Root = root
	return a, nil
}

// AnalyzeString parses and analyzes in one step.
func AnalyzeString(cat *relation.Catalog, query string) (*Analysis, error) {
	sel, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Analyze(cat, sel)
}

func (a *Analysis) analyzeBlock(sel *Select, parent *Analyzed) (*Analyzed, error) {
	blk := &Analyzed{Sel: sel, Parent: parent}
	a.Blocks[sel] = blk

	// Bind FROM tables.
	seen := map[string]bool{}
	for _, fi := range sel.From {
		rel := a.Catalog.Get(fi.Ref.Table)
		if rel == nil {
			return nil, fmt.Errorf("sql: unknown table %q", fi.Ref.Table)
		}
		bt := BoundTable{
			Alias:  fi.Ref.Key(),
			Table:  strings.ToLower(rel.Name),
			Schema: rel.Schema,
		}
		if seen[bt.Alias] {
			return nil, fmt.Errorf("sql: duplicate table alias %q", bt.Alias)
		}
		seen[bt.Alias] = true
		blk.Tables = append(blk.Tables, bt)
	}

	// Expand SELECT *.
	if sel.Star {
		for _, bt := range blk.Tables {
			for _, col := range bt.Schema.Columns {
				sel.Items = append(sel.Items, SelectItem{
					Expr: &ColRef{Qualifier: bt.Alias, Column: col.Name},
				})
			}
		}
		sel.Star = false
	}

	// Resolve expressions.
	resolve := func(e Expr) error { return a.resolveExpr(e, blk) }
	for _, item := range sel.Items {
		if err := resolve(item.Expr); err != nil {
			return nil, err
		}
	}
	for _, fi := range sel.From {
		if fi.On != nil {
			if err := resolve(fi.On); err != nil {
				return nil, err
			}
		}
	}
	if sel.Where != nil {
		if err := resolve(sel.Where); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		if err := resolve(g); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := resolve(sel.Having); err != nil {
			return nil, err
		}
	}

	// Aggregates and output schema.
	for _, item := range sel.Items {
		blk.Aggregates = append(blk.Aggregates, CollectAggregates(item.Expr)...)
	}
	if sel.Having != nil {
		blk.Aggregates = append(blk.Aggregates, CollectAggregates(sel.Having)...)
	}
	blk.HasAgg = len(blk.Aggregates) > 0

	for i, item := range sel.Items {
		name := item.Alias
		if name == "" {
			if c, ok := item.Expr.(*ColRef); ok {
				name = c.Column
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		blk.OutNames = append(blk.OutNames, name)
		blk.OutKinds = append(blk.OutKinds, a.inferKind(item.Expr, blk))
	}

	// UNION ALL arms share the enclosing scope's parent, not this block.
	if sel.Union != nil {
		next, err := a.analyzeBlock(sel.Union, parent)
		if err != nil {
			return nil, err
		}
		if len(next.OutNames) != len(blk.OutNames) {
			return nil, fmt.Errorf("sql: UNION ALL arms have different widths (%d vs %d)", len(blk.OutNames), len(next.OutNames))
		}
		blk.UnionNext = next
	}
	return blk, nil
}

// resolveExpr resolves column references and analyzes nested subqueries.
func (a *Analysis) resolveExpr(e Expr, blk *Analyzed) error {
	var resolveErr error
	walkExpr(e, func(x Expr) bool {
		if resolveErr != nil {
			return false
		}
		switch n := x.(type) {
		case *ColRef:
			resolveErr = a.resolveColRef(n, blk)
		case *Exists:
			_, resolveErr = a.analyzeBlock(n.Sub, blk)
			return false
		case *InSubquery:
			if resolveErr = a.resolveExpr(n.X, blk); resolveErr == nil {
				_, resolveErr = a.analyzeBlock(n.Sub, blk)
			}
			return false
		case *ScalarSubquery:
			_, resolveErr = a.analyzeBlock(n.Sub, blk)
			return false
		}
		return true
	})
	return resolveErr
}

func (a *Analysis) resolveColRef(c *ColRef, blk *Analyzed) error {
	qual := strings.ToLower(c.Qualifier)
	col := strings.ToLower(c.Column)
	depth := 0
	for scope := blk; scope != nil; scope = scope.Parent {
		for _, bt := range scope.Tables {
			if qual != "" && bt.Alias != qual {
				continue
			}
			if bt.Schema.Index(col) < 0 {
				if qual != "" {
					return fmt.Errorf("sql: table %q has no column %q", c.Qualifier, c.Column)
				}
				continue
			}
			if qual == "" {
				// Ensure uniqueness within this scope level.
				matches := 0
				for _, other := range scope.Tables {
					if other.Schema.Index(col) >= 0 {
						matches++
					}
				}
				if matches > 1 {
					return fmt.Errorf("sql: ambiguous column %q", c.Column)
				}
			}
			c.Alias = bt.Alias
			c.Table = bt.Table
			c.Column = col
			c.Depth = depth
			c.Key = BindKey(c.Alias, c.Column)
			return nil
		}
		depth++
	}
	if qual != "" {
		return fmt.Errorf("sql: unknown table or alias %q", c.Qualifier)
	}
	return fmt.Errorf("sql: unknown column %q", c.Column)
}

// inferKind computes the (approximate) output kind of an expression.
func (a *Analysis) inferKind(e Expr, blk *Analyzed) relation.Kind {
	switch n := e.(type) {
	case *Literal:
		return n.Val.Kind
	case *ColRef:
		scope := blk
		for d := 0; d < n.Depth && scope != nil; d++ {
			scope = scope.Parent
		}
		if scope != nil {
			for _, bt := range scope.Tables {
				if bt.Alias == n.Alias {
					if i := bt.Schema.Index(n.Column); i >= 0 {
						return bt.Schema.Columns[i].Kind
					}
				}
			}
		}
		return relation.KindNull
	case *Unary:
		if n.Op == "NOT" {
			return relation.KindBool
		}
		return a.inferKind(n.X, blk)
	case *Binary:
		switch n.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return relation.KindBool
		case "||":
			return relation.KindString
		}
		lk, rk := a.inferKind(n.L, blk), a.inferKind(n.R, blk)
		if n.Op == "/" || lk == relation.KindFloat || rk == relation.KindFloat {
			return relation.KindFloat
		}
		if lk == relation.KindDate {
			return relation.KindDate
		}
		return relation.KindInt
	case *Between, *InList, *InSubquery, *Exists, *Like, *IsNull:
		return relation.KindBool
	case *Case:
		if len(n.Whens) > 0 {
			return a.inferKind(n.Whens[0].Then, blk)
		}
		return relation.KindNull
	case *ScalarSubquery:
		if sub, ok := a.Blocks[n.Sub]; ok && len(sub.OutKinds) == 1 {
			return sub.OutKinds[0]
		}
		return relation.KindFloat
	case *FuncCall:
		switch n.Name {
		case "COUNT":
			return relation.KindInt
		case "AVG":
			return relation.KindFloat
		case "SUM":
			if len(n.Args) == 1 && a.inferKind(n.Args[0], blk) == relation.KindInt {
				return relation.KindInt
			}
			return relation.KindFloat
		case "MIN", "MAX":
			if len(n.Args) == 1 {
				return a.inferKind(n.Args[0], blk)
			}
		case "YEAR", "MONTH", "DAY":
			return relation.KindInt
		}
		return relation.KindFloat
	}
	return relation.KindNull
}

// OutputSchema builds the relation schema of the block's result.
func (b *Analyzed) OutputSchema() *relation.Schema {
	cols := make([]relation.Column, len(b.OutNames))
	used := map[string]int{}
	for i, n := range b.OutNames {
		name := n
		if c := used[strings.ToLower(n)]; c > 0 {
			name = fmt.Sprintf("%s_%d", n, c)
		}
		used[strings.ToLower(n)]++
		cols[i] = relation.Column{Name: name, Kind: b.OutKinds[i]}
	}
	return relation.MustSchema(cols...)
}
