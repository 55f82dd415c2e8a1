package plan

import (
	"fmt"
	"sort"
)

// Tree is a join tree over aliases (one per connected, acyclicized
// component): each non-root alias has a parent it shares at least one
// join-attribute class with.
type Tree struct {
	Root   string
	Parent map[string]string
	// EdgeClass is the class whose attribute node the alias hangs under:
	// the lowest class it shares with its parent (§4.2 picks one
	// attribute to coordinate a multi-attribute join). The TAG plan lists
	// the other classes the alias shares with the relation above that
	// attribute node (Node.Carried), and the reduction semijoins on all
	// of them.
	EdgeClass map[string]int
	// Order lists aliases root-first in BFS order (deterministic).
	Order []string
}

// Children returns the child aliases of a node, sorted.
func (t *Tree) Children(alias string) []string {
	var out []string
	for c, p := range t.Parent {
		if p == alias && c != t.Root {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Cycle is a simple join cycle R1 -p1- R2 -p2- ... -pn- R1 discovered
// during acyclicization; Preds[i] links Aliases[i] with Aliases[(i+1)%n].
type Cycle struct {
	Aliases []string
	Preds   []EquiPred
}

// Component is one connected component of the join graph, acyclicized:
// the join Tree plus any cycles whose closing predicates were removed to
// make it a tree. Broken predicates are re-enforced during collection.
type Component struct {
	Aliases []string
	Tree    *Tree
	TAGPlan *TAGPlan
	Cycles  []Cycle
	Broken  []EquiPred
}

// QueryPlan is the structural plan of an equi-join query: components are
// pairwise unconnected and combine by Cartesian product (§6.3).
type QueryPlan struct {
	Classes    *Classes
	Components []*Component
	// Acyclic reports whether the original query (before any cycle
	// breaking) was acyclic, i.e. §5 applies directly.
	Acyclic bool
}

// Card is the planner's estimate for one alias: the tuples it seeds,
// whether a selection narrows them (a pushed filter, a restriction a
// residual OR implies, or a restriction window such as incremental
// maintenance's write delta), and whether that selection entered: the
// seeds come from attribute vertices or a restriction window, not a
// scan of the whole table.
type Card struct {
	Tuples   int
	Selected bool
	Entered  bool
}

// Options tunes planning.
type Options struct {
	// Cardinality supplies per-alias estimates. The tuple counts root
	// the join tree at the largest relation, remove small ears first and
	// start the collection's walk at the leaf with the fewest tuples;
	// the reduction's walk starts at the selected leaf with the fewest,
	// if a leaf is selected, or at a root or inner alias whose selection
	// entered, if it seeds strictly fewer or no leaf is selected
	// (BuildTAGPlan). Missing entries count one tuple and no selection.
	Cardinality map[string]Card
}

func (o Options) estimate(alias string) Card {
	if c, ok := o.Cardinality[alias]; ok {
		return c
	}
	return Card{Tuples: 1}
}

func (o Options) card(alias string) int { return o.estimate(alias).Tuples }

// Build computes the query plan for the given aliases and equi-join
// predicates.
func Build(aliases []string, preds []EquiPred, opts Options) (*QueryPlan, error) {
	lowered := make([]string, len(aliases))
	for i, a := range aliases {
		lowered[i] = lower(a)
	}
	classes := BuildClasses(preds)
	qp := &QueryPlan{Classes: classes, Acyclic: true}

	for _, comp := range components(lowered, preds) {
		c, acyclic, err := buildComponent(comp, preds, classes, opts)
		if err != nil {
			return nil, err
		}
		if !acyclic {
			qp.Acyclic = false
		}
		qp.Components = append(qp.Components, c)
	}
	sort.Slice(qp.Components, func(i, j int) bool {
		return qp.Components[i].Aliases[0] < qp.Components[j].Aliases[0]
	})
	return qp, nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// components splits aliases into connected components under preds.
func components(aliases []string, preds []EquiPred) [][]string {
	adj := map[string][]string{}
	for _, p := range preds {
		adj[p.A.Alias] = append(adj[p.A.Alias], p.B.Alias)
		adj[p.B.Alias] = append(adj[p.B.Alias], p.A.Alias)
	}
	seen := map[string]bool{}
	var out [][]string
	sorted := append([]string{}, aliases...)
	sort.Strings(sorted)
	for _, a := range sorted {
		if seen[a] {
			continue
		}
		var comp []string
		stack := []string{a}
		seen[a] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		sort.Strings(comp)
		out = append(out, comp)
	}
	return out
}

// buildComponent acyclicizes one component (breaking cycles as needed),
// builds its join tree via GYO, and attaches the TAG plan.
func buildComponent(aliases []string, allPreds []EquiPred, classes *Classes, opts Options) (*Component, bool, error) {
	inComp := map[string]bool{}
	for _, a := range aliases {
		inComp[a] = true
	}
	var preds []EquiPred
	for _, p := range allPreds {
		if inComp[p.A.Alias] && inComp[p.B.Alias] && p.A.Alias != p.B.Alias {
			preds = append(preds, p)
		}
	}

	comp := &Component{Aliases: aliases}
	acyclic := true
	working := preds
	for attempt := 0; ; attempt++ {
		if attempt > len(preds)+1 {
			return nil, false, fmt.Errorf("plan: cycle breaking did not converge for %v", aliases)
		}
		cls := BuildClasses(working)
		tree, ok := gyo(aliases, cls, opts)
		if ok {
			comp.Tree = tree
			remapTreeClasses(tree, cls, classes)
			comp.TAGPlan = BuildTAGPlan(tree, classes, opts.estimate)
			return comp, acyclic, nil
		}
		acyclic = false
		cyc, brokenIdx, err := findCycle(aliases, working)
		if err != nil {
			return nil, false, err
		}
		comp.Cycles = append(comp.Cycles, cyc)
		comp.Broken = append(comp.Broken, working[brokenIdx])
		working = append(append([]EquiPred{}, working[:brokenIdx]...), working[brokenIdx+1:]...)
	}
}

// remapTreeClasses converts class ids from the cycle-broken class
// numbering back to the original (full) numbering used everywhere else.
func remapTreeClasses(t *Tree, broken, full *Classes) {
	for alias, cid := range t.EdgeClass {
		if cid < 0 || cid >= len(broken.Members) || len(broken.Members[cid]) == 0 {
			continue
		}
		rep := broken.Members[cid][0]
		if fid, ok := full.Of[rep]; ok {
			t.EdgeClass[alias] = fid
		}
	}
}

// gyo runs the GYO ear-removal algorithm over the hypergraph whose edges
// are the aliases and whose vertices are the join-attribute classes. It
// returns the join tree if the component is acyclic.
func gyo(aliases []string, classes *Classes, opts Options) (*Tree, bool) {
	remaining := map[string]map[int]bool{}
	for _, a := range aliases {
		set := map[int]bool{}
		for _, c := range classes.ClassesOf(a) {
			set[c] = true
		}
		remaining[a] = set
	}

	parent := map[string]string{}
	edgeClass := map[string]int{}

	// Ear-removal order: smallest cardinality first (dimension tables
	// become leaves; the fact table ends up at the root).
	order := append([]string{}, aliases...)
	sort.Slice(order, func(i, j int) bool {
		if opts.card(order[i]) != opts.card(order[j]) {
			return opts.card(order[i]) < opts.card(order[j])
		}
		return order[i] < order[j]
	})

	for len(remaining) > 1 {
		progress := false
		for _, e := range order {
			se, ok := remaining[e]
			if !ok {
				continue
			}
			// Classes of e shared with at least one other remaining edge.
			shared := map[int]bool{}
			for c := range se {
				for f, sf := range remaining {
					if f != e && sf[c] {
						shared[c] = true
						break
					}
				}
			}
			// e is an ear if a single other edge covers all its shared
			// classes; prefer the largest such cover as the parent.
			var best string
			bestCard := -1
			for f, sf := range remaining {
				if f == e {
					continue
				}
				covers := true
				for c := range shared {
					if !sf[c] {
						covers = false
						break
					}
				}
				if covers && (opts.card(f) > bestCard || (opts.card(f) == bestCard && f < best)) {
					best, bestCard = f, opts.card(f)
				}
			}
			if best == "" {
				continue
			}
			parent[e] = best
			cls := -1
			for c := range shared {
				if remaining[best][c] && (cls < 0 || c < cls) {
					cls = c
				}
			}
			if cls < 0 {
				// No shared class with the parent (disconnected ear in a
				// component is impossible, but keep a fallback).
				for c := range se {
					if remaining[best][c] && (cls < 0 || c < cls) {
						cls = c
					}
				}
			}
			edgeClass[e] = cls
			delete(remaining, e)
			progress = true
			break
		}
		if !progress {
			return nil, false // stuck: cyclic
		}
	}

	var root string
	for a := range remaining {
		root = a
	}
	t := &Tree{Root: root, Parent: parent, EdgeClass: edgeClass}
	t.Order = []string{root}
	for i := 0; i < len(t.Order); i++ {
		t.Order = append(t.Order, t.Children(t.Order[i])...)
	}
	return t, true
}

// findCycle locates a simple cycle in the predicate graph and returns it
// along with the index of the predicate chosen to break (the back arc).
func findCycle(aliases []string, preds []EquiPred) (Cycle, int, error) {
	type arc struct {
		to   string
		pred int
	}
	adj := map[string][]arc{}
	for i, p := range preds {
		adj[p.A.Alias] = append(adj[p.A.Alias], arc{p.B.Alias, i})
		adj[p.B.Alias] = append(adj[p.B.Alias], arc{p.A.Alias, i})
	}
	for a := range adj {
		arcs := adj[a]
		sort.Slice(arcs, func(i, j int) bool {
			if arcs[i].to != arcs[j].to {
				return arcs[i].to < arcs[j].to
			}
			return arcs[i].pred < arcs[j].pred
		})
	}

	sorted := append([]string{}, aliases...)
	sort.Strings(sorted)

	state := map[string]int{} // 0 unvisited, 1 on path, 2 done
	var path []string
	var pathPred []int
	var found Cycle
	foundIdx := -1

	var dfs func(n string, inPred int) bool
	dfs = func(n string, inPred int) bool {
		state[n] = 1
		path = append(path, n)
		pathPred = append(pathPred, inPred)
		defer func() {
			state[n] = 2
			path = path[:len(path)-1]
			pathPred = pathPred[:len(pathPred)-1]
		}()
		for _, a := range adj[n] {
			if a.pred == inPred {
				continue
			}
			// Parallel predicates between the same two aliases form a
			// multi-attribute join (§4.2), not a cycle: ignore arcs back
			// to the immediate predecessor.
			if len(path) >= 2 && a.to == path[len(path)-2] {
				continue
			}
			if state[a.to] == 1 {
				start := 0
				for i, x := range path {
					if x == a.to {
						start = i
						break
					}
				}
				cyc := Cycle{}
				for i := start; i < len(path); i++ {
					cyc.Aliases = append(cyc.Aliases, path[i])
					if i > start {
						cyc.Preds = append(cyc.Preds, preds[pathPred[i]])
					}
				}
				cyc.Preds = append(cyc.Preds, preds[a.pred])
				found = cyc
				foundIdx = a.pred
				return true
			}
			if state[a.to] == 0 && dfs(a.to, a.pred) {
				return true
			}
		}
		return false
	}
	for _, a := range sorted {
		if state[a] == 0 && dfs(a, -1) {
			return found, foundIdx, nil
		}
	}
	return Cycle{}, -1, fmt.Errorf("plan: component reported cyclic but no cycle found")
}
