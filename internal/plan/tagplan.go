package plan

import (
	"fmt"
	"slices"
	"strings"
)

// NodeKind distinguishes TAG plan node kinds (§5.1).
type NodeKind int

// TAG plan node kinds.
const (
	RelNode NodeKind = iota
	AttrNode
)

// Node is a TAG plan node: relation nodes carry the FROM alias, attribute
// nodes carry the join-attribute class.
type Node struct {
	ID       int
	Kind     NodeKind
	Alias    string // RelNode only
	Class    int    // AttrNode only
	Parent   int    // -1 at root
	Children []int
	// Carried lists, ascending, every class other than its attribute
	// node's that a non-root relation node's alias shares with the
	// relation above that attribute node (RelNode only; nil when they
	// share one class). Reduction messages between the two carry the
	// sender's values of these classes, so each crossing is a semijoin
	// on every class the two share.
	Carried []int
}

// Step is one traversal step of the vertex program: the edge between
// plan nodes From and To, carrying the relation-side label alias.column.
type Step struct {
	From, To int
	Label    ColRef
}

// TAGPlan is the tree of relation and attribute nodes plus the two
// connected bottom-up traversals (Algorithm 1) that drive the vertex
// programs: the reduction's, from StartAlias, and the collection's,
// from CollectAlias.
type TAGPlan struct {
	Nodes      []Node
	Root       int
	Steps      []Step
	StartAlias string
	// Collect is the collection's walk; it is Steps itself when the two
	// walks start at the same leaf.
	Collect      []Step
	CollectAlias string
}

// BuildTAGPlan constructs the TAG plan of a join tree per §5.1: one node
// per relation, one node per join attribute class under each relation
// whose children join it on that class (shared by those children), edges
// labeled with the relation-side alias.column, then the Algorithm 1 step
// lists. Every alias hangs under its join-tree parent.
//
// The collection's walk starts at the leaf that seeds the fewest tuples.
// The reduction's starts at the selected leaf that seeds the fewest, or
// at the collection's start if no leaf is selected. A root or inner
// relation whose selection entered (Card.Entered) takes its place when
// it seeds strictly fewer tuples than that selected leaf, or when no
// leaf is selected (reductionStart).
// The reduction's survivors are the same from any start (a semijoin
// program), only its cost is not, and that cost falls when it starts
// where a selection has already removed tuples. The collection gathers
// partial join tables toward the root, and starting it at a selected
// leaf can gather every fact row of a small dimension at that leaf's
// vertices; so it keeps the leaf with the fewest tuples and follows the
// reduction's marks from there.
func BuildTAGPlan(t *Tree, classes *Classes, est func(string) Card) *TAGPlan {
	p := &TAGPlan{}
	relNode := map[string]int{}
	type attrKey struct {
		parent string
		class  int
	}
	attrNode := map[attrKey]int{}

	addNode := func(n Node) int {
		n.ID = len(p.Nodes)
		p.Nodes = append(p.Nodes, n)
		if n.Parent >= 0 {
			p.Nodes[n.Parent].Children = append(p.Nodes[n.Parent].Children, n.ID)
		}
		return n.ID
	}

	p.Root = addNode(Node{Kind: RelNode, Alias: t.Root, Parent: -1, Class: -1})
	relNode[t.Root] = p.Root

	for _, alias := range t.Order {
		if alias == t.Root {
			continue
		}
		parent := t.Parent[alias]
		cls := t.EdgeClass[alias]
		an, ok := attrNode[attrKey{parent, cls}]
		if !ok {
			an = addNode(Node{Kind: AttrNode, Class: cls, Parent: relNode[parent], Alias: ""})
			attrNode[attrKey{parent, cls}] = an
		}
		relNode[alias] = addNode(Node{Kind: RelNode, Alias: alias, Parent: an, Class: -1})
		n, above := &p.Nodes[relNode[alias]], classes.ClassesOf(parent)
		for _, c := range classes.ClassesOf(alias) {
			if c != cls && slices.Contains(above, c) {
				n.Carried = append(n.Carried, c)
			}
		}
	}

	collect := p.smallestLeaf(est, false)
	p.startAt(collect)
	p.genSteps(classes, collect)
	p.Collect, p.CollectAlias = p.Steps, p.StartAlias
	if start := p.reductionStart(est); start >= 0 && start != collect {
		p.Steps = nil
		p.startAt(start)
		p.genSteps(classes, start)
	}
	return p
}

// inEdgeLabel returns the relation-side label of the edge between node n
// and its parent.
func (p *TAGPlan) inEdgeLabel(n int, classes *Classes) ColRef {
	node := p.Nodes[n]
	parent := p.Nodes[node.Parent]
	if node.Kind == RelNode {
		col, _ := classes.ColumnOf(parent.Class, node.Alias)
		return ColRef{Alias: node.Alias, Column: col}
	}
	col, _ := classes.ColumnOf(node.Class, parent.Alias)
	return ColRef{Alias: parent.Alias, Column: col}
}

// genSteps implements Algorithm 1 (GenSteps) from the relation node
// start, which startAt has put on the rightmost root path: a recursive
// DFS pushing each node's in-edge label on visiting, and again on
// leaving unless the node lies on the root-to-start path. Popping the
// stack yields the connected bottom-up traversal from start: it crosses
// each edge of start's own subtrees down and back up, then climbs the
// path to the root, crossing the other subtrees along it the same way.
// A leaf start has no subtrees, and the walk is Algorithm 1's from the
// rightmost leaf.
func (p *TAGPlan) genSteps(classes *Classes, start int) {
	if len(p.Nodes) == 1 {
		p.StartAlias = p.Nodes[p.Root].Alias
		return
	}
	var pushes []int // node ids; in-edge of each
	var dfs func(n int, onPath bool)
	dfs = func(n int, onPath bool) {
		if n != p.Root {
			pushes = append(pushes, n)
		}
		children := p.Nodes[n].Children
		for i, ch := range children {
			dfs(ch, onPath && n != start && i == len(children)-1)
		}
		if n != p.Root && !onPath {
			pushes = append(pushes, n)
		}
	}
	dfs(p.Root, true)

	// Pop order = reversed push order.
	order := make([]int, len(pushes))
	for i, n := range pushes {
		order[len(pushes)-1-i] = n
	}

	cur := start
	p.StartAlias = p.Nodes[cur].Alias

	for _, n := range order {
		label := p.inEdgeLabel(n, classes)
		parent := p.Nodes[n].Parent
		var step Step
		switch cur {
		case n:
			step = Step{From: n, To: parent, Label: label}
			cur = parent
		case parent:
			step = Step{From: parent, To: n, Label: label}
			cur = n
		default:
			panic(fmt.Sprintf("plan: disconnected traversal at node %d (cur %d)", n, cur))
		}
		p.Steps = append(p.Steps, step)
	}
	if cur != p.Root {
		panic("plan: traversal did not end at the root")
	}
}

// smallestLeaf returns the leaf whose alias seeds the fewest tuples;
// with selected, the fewest among the leaves with a selection, or -1 if
// no leaf has one. A tie keeps the rightmost leaf, where genSteps starts
// the collection's walk; among other tied leaves the first in node order
// wins.
func (p *TAGPlan) smallestLeaf(est func(string) Card, selected bool) int {
	leaf := p.Root
	for ch := p.Nodes[leaf].Children; len(ch) > 0; ch = p.Nodes[leaf].Children {
		leaf = ch[len(ch)-1]
	}
	best := -1
	if !selected || est(p.Nodes[leaf].Alias).Selected {
		best = leaf
	}
	for _, n := range p.Nodes {
		if n.Kind != RelNode || len(n.Children) > 0 || n.Parent < 0 {
			continue
		}
		if c := est(n.Alias); (!selected || c.Selected) && (best < 0 || c.Tuples < est(p.Nodes[best].Alias).Tuples) {
			best = n.ID
		}
	}
	return best
}

// reductionStart returns the relation node the reduction's walk starts
// at, or -1 to start it where the collection's does: the selected leaf
// that seeds the fewest tuples, unless a root or inner relation node
// whose selection entered seeds strictly fewer, or no leaf is selected.
// Among those nodes the one that seeds the fewest wins, the first in
// node order on a tie. A selection that did not enter leaves the root or
// inner node's seeds at its whole table, so starting there would wake
// every tuple and cross each edge below it twice for nothing.
func (p *TAGPlan) reductionStart(est func(string) Card) int {
	start := p.smallestLeaf(est, true)
	for _, n := range p.Nodes {
		if n.Kind != RelNode || len(n.Children) == 0 {
			continue
		}
		if c := est(n.Alias); c.Entered && (start < 0 || c.Tuples < est(p.Nodes[start].Alias).Tuples) {
			start = n.ID
		}
	}
	return start
}

// startAt puts node n on the rightmost root path, where genSteps starts
// the walk: the nodes along the root-to-n path move to the last-child
// position of their parents. genSteps is valid for any child order.
func (p *TAGPlan) startAt(start int) {
	for n := start; p.Nodes[n].Parent >= 0; n = p.Nodes[n].Parent {
		ch := p.Nodes[p.Nodes[n].Parent].Children
		i := slices.Index(ch, n)
		copy(ch[i:], ch[i+1:])
		ch[len(ch)-1] = n
	}
}

// Reversed returns the top-down step list: the bottom-up steps reversed
// with directions flipped (drives the DOWN pass and, reversed again, the
// collection phase).
func Reversed(steps []Step) []Step {
	out := make([]Step, len(steps))
	for i, s := range steps {
		out[len(steps)-1-i] = Step{From: s.To, To: s.From, Label: s.Label}
	}
	return out
}

// String renders the plan tree and steps for debugging.
func (p *TAGPlan) String() string {
	var b strings.Builder
	var rec func(n, depth int)
	rec = func(n, depth int) {
		node := p.Nodes[n]
		b.WriteString(strings.Repeat("  ", depth))
		if node.Kind == RelNode {
			fmt.Fprintf(&b, "rel %s\n", node.Alias)
		} else {
			fmt.Fprintf(&b, "attr class%d\n", node.Class)
		}
		for _, ch := range node.Children {
			rec(ch, depth+1)
		}
	}
	rec(p.Root, 0)
	fmt.Fprintf(&b, "start=%s steps=", p.StartAlias)
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Label.String())
	}
	b.WriteByte('\n')
	if p.CollectAlias != p.StartAlias {
		fmt.Fprintf(&b, "collect=%s\n", p.CollectAlias)
	}
	return b.String()
}
