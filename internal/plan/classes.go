// Package plan implements the query-structural planning layer of
// TAG-join: equi-join equivalence classes, the GYO ear-removal test for
// acyclicity with join-tree construction (§5), TAG traversal plans and the
// connected bottom-up step list of Algorithm 1, and the decomposition of
// cyclic queries into cycle + acyclic fragments (§6).
//
// The planner is independent of the SQL frontend: it consumes alias/column
// pairs and equality predicates and produces traversal structures the
// TAG-join executor runs as vertex programs.
package plan

import (
	"fmt"
	"sort"
	"strings"
)

// ColRef names a column of a FROM-clause alias (both lower-cased).
type ColRef struct {
	Alias, Column string
}

// String renders "alias.column".
func (c ColRef) String() string { return c.Alias + "." + c.Column }

// NewColRef lower-cases its arguments.
func NewColRef(alias, column string) ColRef {
	return ColRef{Alias: strings.ToLower(alias), Column: strings.ToLower(column)}
}

// EquiPred is an equality predicate A = B between two alias columns.
type EquiPred struct {
	A, B ColRef
}

func (p EquiPred) String() string { return p.A.String() + " = " + p.B.String() }

// Classes partitions alias columns into join-attribute equivalence
// classes: the transitive closure of the equality predicates. Each class
// plays the role of one join attribute in the TAG plan.
type Classes struct {
	Of      map[ColRef]int
	Members [][]ColRef
}

// BuildClasses computes the equivalence classes of preds by union-find.
func BuildClasses(preds []EquiPred) *Classes {
	parent := map[ColRef]ColRef{}
	var find func(x ColRef) ColRef
	find = func(x ColRef) ColRef {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b ColRef) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, p := range preds {
		union(p.A, p.B)
	}

	// Deterministic class numbering: sort roots' member lists.
	byRoot := map[ColRef][]ColRef{}
	for x := range parent {
		r := find(x)
		byRoot[r] = append(byRoot[r], x)
	}
	var keys []ColRef
	for r := range byRoot {
		keys = append(keys, r)
	}
	sortCols := func(cs []ColRef) {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Alias != cs[j].Alias {
				return cs[i].Alias < cs[j].Alias
			}
			return cs[i].Column < cs[j].Column
		})
	}
	for _, ms := range byRoot {
		sortCols(ms)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := byRoot[keys[i]][0], byRoot[keys[j]][0]
		if a.Alias != b.Alias {
			return a.Alias < b.Alias
		}
		return a.Column < b.Column
	})

	c := &Classes{Of: map[ColRef]int{}}
	for _, r := range keys {
		id := len(c.Members)
		c.Members = append(c.Members, byRoot[r])
		for _, m := range byRoot[r] {
			c.Of[m] = id
		}
	}
	return c
}

// ColumnOf returns the (first) column of alias belonging to class id.
func (c *Classes) ColumnOf(class int, alias string) (string, bool) {
	for _, m := range c.Members[class] {
		if m.Alias == alias {
			return m.Column, true
		}
	}
	return "", false
}

// ClassesOf returns the sorted class ids that alias participates in.
func (c *Classes) ClassesOf(alias string) []int {
	seen := map[int]bool{}
	var out []int
	for ref, id := range c.Of {
		if ref.Alias == alias && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Name returns a stable display name for a class.
func (c *Classes) Name(class int) string {
	if class < 0 || class >= len(c.Members) || len(c.Members[class]) == 0 {
		return fmt.Sprintf("class%d", class)
	}
	return c.Members[class][0].String()
}
