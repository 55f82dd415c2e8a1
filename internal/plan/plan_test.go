package plan

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func pred(a, ca, b, cb string) EquiPred {
	return EquiPred{A: NewColRef(a, ca), B: NewColRef(b, cb)}
}

func TestBuildClasses(t *testing.T) {
	preds := []EquiPred{
		pred("r", "a", "s", "a"),
		pred("s", "a", "t", "x"), // transitive with the first
		pred("s", "b", "v", "b"),
	}
	c := BuildClasses(preds)
	if len(c.Members) != 2 {
		t.Fatalf("classes = %d, want 2", len(c.Members))
	}
	ra := c.Of[NewColRef("r", "a")]
	tx := c.Of[NewColRef("t", "x")]
	if ra != tx {
		t.Error("transitive equality should merge classes")
	}
	sb := c.Of[NewColRef("s", "b")]
	if sb == ra {
		t.Error("independent equalities should stay separate")
	}
	if col, ok := c.ColumnOf(ra, "t"); !ok || col != "x" {
		t.Errorf("ColumnOf = %q", col)
	}
	if got := c.Members[ra]; len(got) != 3 {
		t.Errorf("Members = %v", got)
	}
	if got := c.ClassesOf("s"); len(got) != 2 {
		t.Errorf("ClassesOf(s) = %v", got)
	}
	if c.Name(ra) == "" {
		t.Error("Name should be non-empty")
	}
}

// figure4Plan builds the paper's Figure 4 example: join tree R-S, S-T,
// S-V with R⋈S on A and S⋈{T,V} on B.
func figure4Plan(t *testing.T) *QueryPlan {
	t.Helper()
	preds := []EquiPred{
		pred("r", "a", "s", "a"),
		pred("s", "b", "t", "b"),
		pred("s", "b", "v", "b"),
	}
	qp, err := Build([]string{"r", "s", "t", "v"}, preds, Options{
		Cardinality: tuples(map[string]int{"r": 1000, "s": 500, "t": 100, "v": 50}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return qp
}

func TestFigure4JoinTree(t *testing.T) {
	qp := figure4Plan(t)
	if !qp.Acyclic || len(qp.Components) != 1 {
		t.Fatalf("acyclic=%v components=%d", qp.Acyclic, len(qp.Components))
	}
	tree := qp.Components[0].Tree
	if tree.Root != "r" {
		t.Errorf("root = %s, want r (largest)", tree.Root)
	}
	if tree.Parent["s"] != "r" || tree.Parent["t"] != "s" || tree.Parent["v"] != "s" {
		t.Errorf("parents = %v", tree.Parent)
	}
}

func TestFigure4StepsMatchPaper(t *testing.T) {
	qp := figure4Plan(t)
	p := qp.Components[0].TAGPlan
	if p.StartAlias != "v" {
		t.Errorf("start = %s, want v (rightmost leaf)", p.StartAlias)
	}
	// Figure 4(c): V.B, T.B, T.B, S.B, S.A, R.A.
	want := []string{"v.b", "t.b", "t.b", "s.b", "s.a", "r.a"}
	if len(p.Steps) != len(want) {
		t.Fatalf("steps = %v", p)
	}
	for i, s := range p.Steps {
		if s.Label.String() != want[i] {
			t.Errorf("step %d = %s, want %s\n%s", i, s.Label, want[i], p)
		}
	}
	// Directions: connected traversal — each step starts where the
	// previous ended; final step reaches the root.
	for i := 1; i < len(p.Steps); i++ {
		if p.Steps[i].From != p.Steps[i-1].To {
			t.Errorf("step %d is disconnected", i)
		}
	}
	if p.Steps[len(p.Steps)-1].To != p.Root {
		t.Error("traversal must end at the root")
	}
}

func TestReversedSteps(t *testing.T) {
	qp := figure4Plan(t)
	steps := qp.Components[0].TAGPlan.Steps
	rev := Reversed(steps)
	if len(rev) != len(steps) {
		t.Fatal("length mismatch")
	}
	if rev[0].Label.String() != "r.a" || rev[0].From != steps[len(steps)-1].To {
		t.Errorf("first reversed step = %+v", rev[0])
	}
	// Reversing twice is the identity.
	again := Reversed(rev)
	for i := range steps {
		if again[i] != steps[i] {
			t.Errorf("double reverse mismatch at %d", i)
		}
	}
}

func TestTriangleIsCyclic(t *testing.T) {
	preds := []EquiPred{
		pred("r", "b", "s", "b"),
		pred("s", "c", "t", "c"),
		pred("t", "a", "r", "a"),
	}
	qp, err := Build([]string{"r", "s", "t"}, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qp.Acyclic {
		t.Fatal("triangle should be cyclic")
	}
	comp := qp.Components[0]
	if len(comp.Cycles) != 1 || len(comp.Broken) != 1 {
		t.Fatalf("cycles=%d broken=%d", len(comp.Cycles), len(comp.Broken))
	}
	cyc := comp.Cycles[0]
	if len(cyc.Aliases) != 3 || len(cyc.Preds) != 3 {
		t.Errorf("cycle = %+v", cyc)
	}
	// After breaking, the tree must span all three aliases.
	if len(comp.Tree.Order) != 3 {
		t.Errorf("tree order = %v", comp.Tree.Order)
	}
}

func TestFiveCycle(t *testing.T) {
	var preds []EquiPred
	names := []string{"r1", "r2", "r3", "r4", "r5"}
	for i := range names {
		j := (i + 1) % 5
		preds = append(preds, pred(names[i], "x"+names[j], names[j], "x"+names[j]))
	}
	qp, err := Build(names, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qp.Acyclic {
		t.Fatal("5-cycle should be cyclic")
	}
	cyc := qp.Components[0].Cycles[0]
	if len(cyc.Aliases) != 5 {
		t.Errorf("cycle length = %d, want 5", len(cyc.Aliases))
	}
}

func TestMultiAttributeJoinIsAcyclic(t *testing.T) {
	preds := []EquiPred{
		pred("r", "a", "s", "a"),
		pred("r", "b", "s", "b"),
	}
	qp, err := Build([]string{"r", "s"}, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !qp.Acyclic {
		t.Error("parallel predicates are a multi-attribute join, not a cycle")
	}
	if len(qp.Components[0].Cycles) != 0 {
		t.Error("no cycles expected")
	}
}

func TestDisconnectedComponents(t *testing.T) {
	preds := []EquiPred{
		pred("a", "x", "b", "x"),
		pred("c", "y", "d", "y"),
	}
	qp, err := Build([]string{"a", "b", "c", "d", "e"}, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qp.Components) != 3 { // {a,b}, {c,d}, {e}
		t.Fatalf("components = %d, want 3", len(qp.Components))
	}
	// Single-alias component: trivial plan.
	var single *Component
	for _, c := range qp.Components {
		if len(c.Aliases) == 1 {
			single = c
		}
	}
	if single == nil || single.TAGPlan.StartAlias != "e" || len(single.TAGPlan.Steps) != 0 {
		t.Errorf("single component = %+v", single)
	}
}

func TestSnowflakeTree(t *testing.T) {
	// fact joins dim1..dim4; dim1 joins subdim. Classic snowflake.
	preds := []EquiPred{
		pred("fact", "k1", "dim1", "k"),
		pred("fact", "k2", "dim2", "k"),
		pred("fact", "k3", "dim3", "k"),
		pred("fact", "k4", "dim4", "k"),
		pred("dim1", "s", "subdim", "s"),
	}
	qp, err := Build([]string{"fact", "dim1", "dim2", "dim3", "dim4", "subdim"}, preds, Options{
		Cardinality: tuples(map[string]int{"fact": 100000, "dim1": 100, "dim2": 100, "dim3": 100, "dim4": 100, "subdim": 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !qp.Acyclic {
		t.Fatal("snowflake must be acyclic")
	}
	tree := qp.Components[0].Tree
	if tree.Root != "fact" {
		t.Errorf("root = %s", tree.Root)
	}
	if tree.Parent["subdim"] != "dim1" {
		t.Errorf("subdim parent = %s", tree.Parent["subdim"])
	}
	p := qp.Components[0].TAGPlan
	// 6 rel nodes + 5 attr classes... dim joins have distinct classes.
	rels := 0
	for _, n := range p.Nodes {
		if n.Kind == RelNode {
			rels++
		}
	}
	if rels != 6 {
		t.Errorf("rel nodes = %d", rels)
	}
}

func TestSharedAttrNode(t *testing.T) {
	// r, s, t all join on one attribute: TAG plan has ONE attr node.
	preds := []EquiPred{
		pred("r", "x", "s", "x"),
		pred("s", "x", "t", "x"),
	}
	qp, err := Build([]string{"r", "s", "t"}, preds, Options{
		Cardinality: tuples(map[string]int{"r": 100, "s": 10, "t": 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	attrs := 0
	for _, n := range qp.Components[0].TAGPlan.Nodes {
		if n.Kind == AttrNode {
			attrs++
		}
	}
	if attrs != 1 {
		t.Errorf("attr nodes = %d, want 1 (single shared value node)", attrs)
	}
}

func TestStepsConnectedProperty(t *testing.T) {
	// Random star joins always produce connected traversals ending at root.
	f := func(nDims uint8) bool {
		n := int(nDims%6) + 1
		aliases := []string{"fact"}
		var preds []EquiPred
		for i := 0; i < n; i++ {
			d := "d" + string(rune('a'+i))
			aliases = append(aliases, d)
			preds = append(preds, pred("fact", "k"+d, d, "k"))
		}
		qp, err := Build(aliases, preds, Options{Cardinality: tuples(map[string]int{"fact": 10000})})
		if err != nil || len(qp.Components) != 1 {
			return false
		}
		p := qp.Components[0].TAGPlan
		return checkWalk(p, p.Steps, p.StartAlias)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPlanString(t *testing.T) {
	qp := figure4Plan(t)
	s := qp.Components[0].TAGPlan.String()
	if !strings.Contains(s, "rel r") || !strings.Contains(s, "start=v") {
		t.Errorf("String() = %s", s)
	}
}

// TestStartAtSmallestLeaf checks that the walk starts at the leaf with
// the smallest Cardinality, which need not be the rightmost one, and
// that a tie keeps the rightmost leaf.
func TestStartAtSmallestLeaf(t *testing.T) {
	preds := []EquiPred{
		pred("r", "a", "s", "a"),
		pred("s", "b", "t", "b"),
		pred("s", "b", "v", "b"),
	}
	for _, tc := range []struct {
		name string
		card map[string]int
		want string
	}{
		{"smaller-left-leaf", map[string]int{"r": 1000, "s": 500, "t": 10, "v": 50}, "t"},
		{"tie", map[string]int{"r": 1000, "s": 500, "t": 50, "v": 50}, "v"},
	} {
		qp, err := Build([]string{"r", "s", "t", "v"}, preds, Options{Cardinality: tuples(tc.card)})
		if err != nil {
			t.Fatal(err)
		}
		p := qp.Components[0].TAGPlan
		if p.StartAlias != tc.want {
			t.Errorf("%s: start = %s, want %s\n%s", tc.name, p.StartAlias, tc.want, p)
		}
		if !checkWalk(p, p.Steps, p.StartAlias) {
			t.Errorf("%s: the walk is not connected from the start alias to the root\n%s", tc.name, p)
		}
	}
}

// tuples gives each alias its tuple count and no selection.
func tuples(n map[string]int) map[string]Card {
	out := make(map[string]Card, len(n))
	for a, k := range n {
		out[a] = Card{Tuples: k}
	}
	return out
}

// checkWalk reports whether steps is a connected walk from alias's
// relation node, a leaf, an inner node or the root, to the root that
// crosses every plan edge.
func checkWalk(p *TAGPlan, steps []Step, alias string) bool {
	if len(steps) == 0 || p.Nodes[steps[0].From].Alias != alias || steps[len(steps)-1].To != p.Root {
		return false
	}
	crossed := map[int]bool{} // by the child node of the edge
	for i, s := range steps {
		if i > 0 && s.From != steps[i-1].To {
			return false
		}
		crossed[max(s.From, s.To)] = true
	}
	return len(crossed) == len(p.Nodes)-1
}

// TestReductionStartsAtSelectedLeaf checks the two starts: the
// reduction's walk starts at the selected leaf with the fewest tuples,
// the collection's at the leaf with the fewest tuples, and with no
// selected leaf, or when the smallest leaf is selected, both walks are
// one list. A root or inner node whose selection entered starts the
// reduction when no leaf is selected or it seeds fewer than the
// selected leaf; a root that is selected but did not enter never does.
func TestReductionStartsAtSelectedLeaf(t *testing.T) {
	preds := []EquiPred{
		pred("r", "a", "s", "a"),
		pred("s", "b", "t", "b"),
		pred("s", "b", "v", "b"),
		pred("s", "c", "w", "c"),
	}
	for _, tc := range []struct {
		name            string
		card            map[string]Card
		reduce, collect string
	}{
		{"none-selected", map[string]Card{"r": {Tuples: 1000}, "s": {Tuples: 500}, "t": {Tuples: 100}, "v": {Tuples: 50}, "w": {Tuples: 80}}, "v", "v"},
		{"smallest-selected", map[string]Card{"r": {Tuples: 1000}, "s": {Tuples: 500}, "t": {Tuples: 100, Selected: true}, "v": {Tuples: 50, Selected: true}, "w": {Tuples: 80}}, "v", "v"},
		{"larger-selected", map[string]Card{"r": {Tuples: 1000}, "s": {Tuples: 500}, "t": {Tuples: 100, Selected: true}, "v": {Tuples: 50}, "w": {Tuples: 80, Selected: true}}, "w", "v"},
		{"root-selected-only", map[string]Card{"r": {Tuples: 1000, Selected: true}, "s": {Tuples: 500}, "t": {Tuples: 100}, "v": {Tuples: 50}, "w": {Tuples: 80}}, "v", "v"},
		{"root-entered", map[string]Card{"r": {Tuples: 1000, Selected: true, Entered: true}, "s": {Tuples: 500}, "t": {Tuples: 100}, "v": {Tuples: 50}, "w": {Tuples: 80}}, "r", "v"},
		{"inner-entered", map[string]Card{"r": {Tuples: 1000}, "s": {Tuples: 500, Selected: true, Entered: true}, "t": {Tuples: 100}, "v": {Tuples: 50}, "w": {Tuples: 80}}, "s", "v"},
		{"root-entered-above-leaf", map[string]Card{"r": {Tuples: 1000, Selected: true, Entered: true}, "s": {Tuples: 500}, "t": {Tuples: 100}, "v": {Tuples: 50}, "w": {Tuples: 80, Selected: true}}, "w", "v"},
	} {
		qp, err := Build([]string{"r", "s", "t", "v", "w"}, preds, Options{Cardinality: tc.card})
		if err != nil {
			t.Fatal(err)
		}
		p := qp.Components[0].TAGPlan
		if p.StartAlias != tc.reduce || p.CollectAlias != tc.collect {
			t.Errorf("%s: reduction starts at %s, collection at %s; want %s and %s\n%s", tc.name, p.StartAlias, p.CollectAlias, tc.reduce, tc.collect, p)
		}
		if !checkWalk(p, p.Steps, p.StartAlias) || !checkWalk(p, p.Collect, p.CollectAlias) {
			t.Errorf("%s: a walk is not connected from its start to the root\n%s", tc.name, p)
		}
		if same := &p.Steps[0] == &p.Collect[0]; same != (tc.reduce == tc.collect) {
			t.Errorf("%s: walks share one list = %v, want %v", tc.name, same, tc.reduce == tc.collect)
		}
	}
}

// carriedOf returns the Carried classes of alias's relation node.
func carriedOf(p *TAGPlan, alias string) []int {
	for _, n := range p.Nodes {
		if n.Kind == RelNode && n.Alias == alias {
			return n.Carried
		}
	}
	return nil
}

// TestPlanEdgesCarryEverySharedClass builds TPC-H q9's join graph:
// lineitem and partsupp share partkey and suppkey, every other edge one
// class. partsupp hangs under the partkey node, the lowest class it
// shares with lineitem, and carries suppkey; no other node carries
// anything.
func TestPlanEdgesCarryEverySharedClass(t *testing.T) {
	preds := []EquiPred{
		pred("supplier", "s_suppkey", "lineitem", "l_suppkey"),
		pred("partsupp", "ps_suppkey", "lineitem", "l_suppkey"),
		pred("partsupp", "ps_partkey", "lineitem", "l_partkey"),
		pred("part", "p_partkey", "lineitem", "l_partkey"),
		pred("orders", "o_orderkey", "lineitem", "l_orderkey"),
		pred("supplier", "s_nationkey", "nation", "n_nationkey"),
	}
	qp, err := Build([]string{"part", "supplier", "lineitem", "partsupp", "orders", "nation"}, preds, Options{
		Cardinality: tuples(map[string]int{"lineitem": 6000, "orders": 1500, "partsupp": 800, "part": 200, "supplier": 10, "nation": 25}),
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, cl := qp.Components[0], qp.Classes
	partkey, suppkey := cl.Of[NewColRef("lineitem", "l_partkey")], cl.Of[NewColRef("lineitem", "l_suppkey")]
	if comp.Tree.Parent["partsupp"] != "lineitem" || comp.Tree.EdgeClass["partsupp"] != min(partkey, suppkey) {
		t.Fatalf("partsupp: parent %q, edge class %d", comp.Tree.Parent["partsupp"], comp.Tree.EdgeClass["partsupp"])
	}
	for _, n := range comp.TAGPlan.Nodes {
		want := []int(nil)
		if n.Kind == RelNode && n.Alias == "partsupp" {
			want = []int{max(partkey, suppkey)}
		}
		if !slices.Equal(n.Carried, want) {
			t.Errorf("node %d (%s) carries %v, want %v", n.ID, n.Alias, n.Carried, want)
		}
	}
}

// TestCarriedClassesAfterCycleBreaking: a triangle r-s-t whose r-s
// side is two predicates. Breaking the cycle at t-r leaves r under s,
// sharing two classes; the carried one is named in the full numbering.
func TestCarriedClassesAfterCycleBreaking(t *testing.T) {
	preds := []EquiPred{
		pred("r", "a", "s", "a"),
		pred("r", "b", "s", "b"),
		pred("s", "c", "t", "c"),
		pred("t", "d", "r", "d"),
	}
	qp, err := Build([]string{"r", "s", "t"}, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp := qp.Components[0]
	if len(comp.Broken) != 1 || comp.Broken[0] != pred("t", "d", "r", "d") {
		t.Fatalf("broken = %v, want [t.d = r.d]", comp.Broken)
	}
	a, b := qp.Classes.Of[NewColRef("r", "a")], qp.Classes.Of[NewColRef("r", "b")]
	if comp.Tree.Parent["r"] != "s" || comp.Tree.EdgeClass["r"] != a {
		t.Fatalf("r: parent %q, edge class %d; want s, %d", comp.Tree.Parent["r"], comp.Tree.EdgeClass["r"], a)
	}
	if got := carriedOf(comp.TAGPlan, "r"); !slices.Equal(got, []int{b}) {
		t.Errorf("r carries %v, want [%d]", got, b)
	}
	if got := carriedOf(comp.TAGPlan, "t"); got != nil {
		t.Errorf("t carries %v, want nothing", got)
	}
}

// TestEveryAliasHangsUnderItsTreeParent builds a join graph whose
// join tree gives two aliases one edge class under different parents:
// r1 joins the root r4 on the class of r0.a, and r0 joins r1 on it too,
// sharing r0.c's class with r1 as well. Each relation node hangs under
// an attribute node whose parent is its join-tree parent, and carries
// every other class it shares with that parent; a node per class alone
// would hang r0 under r4 and carry nothing.
func TestEveryAliasHangsUnderItsTreeParent(t *testing.T) {
	preds := []EquiPred{
		pred("r0", "a", "r1", "b"),
		pred("r0", "c", "r1", "c"),
		pred("r1", "c", "r2", "b"),
		pred("r1", "a", "r2", "c"),
		pred("r0", "c", "r3", "c"),
		pred("r0", "a", "r4", "c"),
	}
	qp, err := Build([]string{"r0", "r1", "r2", "r3", "r4"}, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, cl := qp.Components[0], qp.Classes
	p := comp.TAGPlan
	for _, n := range p.Nodes {
		if n.Kind != RelNode || n.Parent < 0 {
			continue
		}
		attr := p.Nodes[n.Parent]
		treeParent := comp.Tree.Parent[n.Alias]
		if got := p.Nodes[attr.Parent].Alias; got != treeParent {
			t.Errorf("%s hangs under %s, its join-tree parent is %s", n.Alias, got, treeParent)
		}
		var want []int
		for _, c := range cl.ClassesOf(n.Alias) {
			if c != attr.Class && slices.Contains(cl.ClassesOf(treeParent), c) {
				want = append(want, c)
			}
		}
		if !slices.Equal(n.Carried, want) {
			t.Errorf("%s carries %v, want %v", n.Alias, n.Carried, want)
		}
	}
	if got, want := carriedOf(p, "r0"), []int{cl.Of[NewColRef("r0", "c")]}; !slices.Equal(got, want) {
		t.Errorf("r0 carries %v, want %v\n%s", got, want, p)
	}
}
