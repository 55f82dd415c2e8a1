package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

// ExecInfo reports how the last query was executed.
type ExecInfo struct {
	Agg     AggClass
	Acyclic bool
	Cycles  int
}

// Session holds all per-query mutable state of one evaluation over a
// shared, frozen TAG graph: its own BSP engine (sparse inboxes, stats),
// the subquery memoization caches, the decorrelation tables, and the
// heavy/light threshold θ. A Session runs one query at a time,
// but any number of Sessions may evaluate concurrently over the same
// tag.Graph — the TAG encoding is query-independent, so serving N
// queries means N Sessions over one graph. The engine's message plane
// is sparse and pooled, so building a Session is cheap enough to do on
// the serving path; its first component run sizes the pooled per-vertex
// scratch (scratch.go) that every later run reuses.
//
// A Session is pinned to the graph it was created on, which must stay
// frozen and unmutated for the Session's lifetime. Incremental
// maintenance therefore never touches a graph with live Sessions:
// internal/serve clones the graph copy-on-write, applies the batch to
// the clone, publishes it as a new generation with fresh Sessions, and
// lets the old generation's Sessions drain.
type Session struct {
	TAG  *tag.Graph
	Opts bsp.Options

	// Theta overrides the heavy/light threshold of the §6.2 cycle
	// pre-pass (§6.1.2); 0 means the default θ = √IN. Answers do not
	// depend on it, only the pre-pass's cost does.
	Theta float64

	eng *bsp.Engine
	// Info reports how the most recent query was executed.
	Info ExecInfo

	subCache  map[*sql.Select]*relation.Relation
	corrCache map[*sql.Select]*corrMemo
	decorr    map[*sql.Select]*decorrTable

	// restrict limits which tuple vertices of an alias participate in a
	// run, by vertex-ID window (incremental maintenance's old/delta
	// split); nil means unrestricted. A window also narrows the alias's
	// seed count, so the reduction starts at the write delta when it is
	// a leaf. capture, when non-nil, snapshots the pre-projection group
	// state of the next aggregate run. Both are managed by the
	// incremental runner (incremental.go) and are nil for ordinary
	// queries.
	restrict map[string]vertexWindow
	capture  *stateCapture

	// freeMarks and freeMemos are the released per-vertex buffers of
	// earlier component runs (scratch.go); reusing them keeps a run's
	// set-up O(touched) instead of O(|V|).
	freeMarks []*markScratch
	freeMemos []*filterMemo
}

// NewSession prepares an independent evaluation session over t. The
// returned Session owns a private BSP engine, so it shares nothing
// mutable with other sessions on the same graph.
func NewSession(t *tag.Graph, opts bsp.Options) *Session {
	if opts.Codec == nil {
		// The SQL layer's payload registry: lets the engine put this
		// package's message and emit types on the wire (and price the
		// simulated exchange in exactly those bytes).
		opts.Codec = sessionCodec{}
	}
	return &Session{
		TAG:  t,
		Opts: opts,
		eng:  bsp.NewEngine(t.G, opts),
	}
}

// runProg runs one vertex program on the session's engine and surfaces
// the engine-level error: a Context.Fail raised by any partition (made
// global at the barrier) or a transport/codec failure. Phases must
// check it before consuming Emitted(), which may be partial after an
// aborted run.
func (e *Session) runProg(prog bsp.Program, initial []bsp.VertexID) error {
	e.eng.Run(prog, initial)
	return e.eng.RunErr()
}

// Stats returns the accumulated BSP cost measures across this session's
// queries.
func (e *Session) Stats() bsp.Stats { return e.eng.Stats() }

// ResetStats zeroes the accumulated cost measures.
func (e *Session) ResetStats() { e.eng.ResetStats() }

// DistErr reports the sticky transport failure that has permanently
// degraded this session's distributed engine (nil on loopback sessions
// and while a distributed transport stays healthy). Query errors do
// not set it; a node that reports one can no longer participate in its
// topology.
func (e *Session) DistErr() error { return e.eng.DistErr() }

// PeakInboxBytes reports the largest resident inbox footprint any of
// this session's supersteps reached (requires Opts.Profile). Together
// with Stats().MessagesCombined / InboxBytesSaved it quantifies what
// Send-time combining kept out of the message plane.
func (e *Session) PeakInboxBytes() int64 { return e.eng.PeakInboxBytes() }

// MergeDuration reports the cumulative communication-stage wall time of
// this session's supersteps (requires Opts.Profile).
func (e *Session) MergeDuration() time.Duration { return e.eng.MergeDuration() }

// Query parses, analyzes and executes a SQL string.
func (e *Session) Query(query string) (*relation.Relation, error) {
	an, err := sql.AnalyzeString(e.TAG.Catalog, query)
	if err != nil {
		return nil, err
	}
	return e.Run(an)
}

// Run executes an analyzed query. The Analysis may be shared across
// sessions (prepared-statement style): execution never mutates it.
func (e *Session) Run(an *sql.Analysis) (*relation.Relation, error) {
	e.subCache = map[*sql.Select]*relation.Relation{}
	e.corrCache = map[*sql.Select]*corrMemo{}
	e.decorr = map[*sql.Select]*decorrTable{}
	e.Info = ExecInfo{Acyclic: true}
	return e.runChain(an, an.Root, nil)
}

// RunContext is Run with cooperative cancellation: once ctx is done
// (deadline or explicit cancel), the session's engine stops at the
// next superstep barrier and RunContext returns ctx's error. The
// abort point is a barrier, never mid-superstep, so the engine's
// pooled planes go through their normal end-of-Run cleanup and the
// session stays safe to reuse for the next query — which is what lets
// a serving layer return a cancelled query's session to its pool.
//
// The execution phases between engine runs see partial frontiers
// after an abort; whatever they derive is discarded, and a panic they
// raise while ctx is cancelled is converted into the cancellation
// error (a panic with ctx still live propagates unchanged, exactly as
// under Run). A context that can never be cancelled costs nothing:
// RunContext then is Run.
func (e *Session) RunContext(ctx context.Context, an *sql.Analysis) (out *relation.Relation, err error) {
	if ctx == nil || ctx.Done() == nil {
		return e.Run(an)
	}
	deadline, hasDeadline := ctx.Deadline()
	e.eng.SetContext(ctx)
	defer e.eng.SetContext(nil)
	defer func() {
		cerr := ctx.Err()
		if cerr == nil && hasDeadline && time.Now().After(deadline) {
			// ctx.Err turns non-nil only when a runtime timer fires, and
			// on a single-P runtime a compute-bound query can hold the
			// only P past its whole deadline window. The deadline is a
			// wall-clock fact (the engine's barriers treat it the same
			// way); a run that finished past it is reported aborted.
			cerr = context.DeadlineExceeded
		}
		if cerr != nil {
			recover() // partial-frontier panic caused by the abort, if any
			out, err = nil, fmt.Errorf("core: query aborted: %w", cerr)
		}
	}()
	return e.Run(an)
}

func (e *Session) runChain(an *sql.Analysis, blk *sql.Analyzed, outer *sql.Env) (*relation.Relation, error) {
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

// subqueryFn evaluates nested blocks: uncorrelated blocks run once and
// cache; correlated ones run per distinct correlation key (memoized),
// each as its own TAG vertex program.
func (e *Session) subqueryFn(an *sql.Analysis) sql.SubqueryFn {
	return func(sub *sql.Select, env *sql.Env) (*relation.Relation, error) {
		// Decorrelated subqueries answer from their prebuilt lookup table.
		if dt := e.decorr[sub]; dt != nil {
			return dt.lookup(dt.appendKey(nil, nil), nil, env)
		}
		blk := an.Blocks[sub]
		if blk == nil {
			return nil, fmt.Errorf("core: unanalyzed subquery")
		}
		if !sql.BlockIsCorrelated(an, blk) {
			if cached, ok := e.subCache[sub]; ok {
				return cached, nil
			}
			out, err := e.runChain(an, blk, env)
			if err != nil {
				return nil, err
			}
			e.subCache[sub] = out
			return out, nil
		}
		memo := e.corrCache[sub]
		if memo == nil {
			memo = &corrMemo{refs: sql.OuterRefs(an, blk)}
			e.corrCache[sub] = memo
		}
		key := memo.key(env)
		if i := memo.index.find(len(memo.keys), memo.keyAt, key); i >= 0 {
			return memo.outs[i], nil
		}
		out, err := e.runChain(an, blk, env)
		if err != nil {
			return nil, err
		}
		memo.keys = append(memo.keys, key)
		memo.outs = append(memo.outs, out)
		return out, nil
	}
}

// corrMemo memoizes one correlated subquery's results by the values of
// its outer references, refs: outs[i] answers keys[i].
type corrMemo struct {
	refs  []*sql.ColRef
	keys  [][]relation.Value
	outs  []*relation.Relation
	index keyIndex
}

func (m *corrMemo) keyAt(i int) []relation.Value { return m.keys[i] }

// key returns the memoization key of the subquery run under env: the
// outer references' values (NULL where unbound).
func (m *corrMemo) key(env *sql.Env) []relation.Value {
	key := make([]relation.Value, len(m.refs))
	for i, ref := range m.refs {
		key[i], _ = env.Lookup(ref.Key)
	}
	return key
}

// runBlock executes one SELECT block.
func (e *Session) runBlock(an *sql.Analysis, blk *sql.Analyzed, outer *sql.Env) (*relation.Relation, error) {
	c, err := e.compileBlock(an, blk)
	if err != nil {
		return nil, err
	}
	if c.agg > e.Info.Agg {
		e.Info.Agg = c.agg
	}

	subq := e.subqueryFn(an)
	var combined *table
	if c.hasOuter {
		if combined, err = e.runOuterBlock(c, outer, subq); err != nil {
			return nil, err
		}
	} else {
		if !c.qp.Acyclic {
			e.Info.Acyclic = false
		}
		// One TAG-join run per component, then Cartesian-combine (§6.3/§6.4).
		var singleRes *componentResult
		for _, comp := range c.qp.Components {
			e.Info.Cycles += len(comp.Cycles)
			res, err := e.runComponent(c, comp, outer, subq)
			if err != nil {
				return nil, err
			}
			if len(c.qp.Components) == 1 {
				singleRes = res
				break
			}
			t := res.assemble(c)
			if combined == nil {
				combined = t
			} else {
				// Cartesian product of components: account the Algorithm B
				// communication cost (|L|·|R| messages, §6.3).
				e.eng.AddExternal(int64(len(combined.rows))*int64(len(t.rows)), int64(combined.Size()), 0)
				combined = joinTables(combined, t, c.classCols)
			}
		}

		// Aggregation finalizes vertex-parallel when the block has one
		// component whose residual predicates are vertex-safe. Everything
		// else assembles centrally: a non-aggregate block's survivors
		// already hold the collection output on every node.
		if c.finalizesAtVertices() {
			var targetOf func(relation.Value) bsp.VertexID
			if c.agg == AggLocal && c.hasLocalAggKey(e.TAG) {
				targetOf = func(k relation.Value) bsp.VertexID {
					if av, ok := e.TAG.AttrVertexOf(k); ok {
						return av
					}
					return e.TAG.Aggregator // NULL or unmaterialized key value
				}
			}
			return e.finalizeGroups(c, singleRes, targetOf, outer, subq)
		}
		if singleRes != nil {
			combined = singleRes.assemble(c)
		}
	}
	// Outer-join, multi-component and non-aggregate blocks, and blocks
	// with vertex-unsafe residuals, finish here.
	combined, err = e.applyResidualCentral(c, combined, outer, subq)
	if err != nil {
		return nil, err
	}
	return e.projectCentral(c, combined, outer, subq)
}

// applyResidualCentral filters an assembled table by the residual
// predicates, charging one op per input row.
func (e *Session) applyResidualCentral(c *compiled, t *table, outer *sql.Env, subq sql.SubqueryFn) (*table, error) {
	if len(c.residual) == 0 || t == nil {
		return t, nil
	}
	e.eng.AddExternal(0, 0, int64(len(t.rows)))
	out := newTableShared(t.header, t.index)
	var err error
	out.rows, err = keepRows(compileTests(c.residual, sql.Binding(t.index)), t.rows, outer, subq, nil)
	return out, err
}

// projectCentral applies grouping, aggregation, HAVING, the SELECT list
// and DISTINCT to an assembled table (used for outer-join blocks,
// blocks without aggregation, multi-component blocks and blocks with
// vertex-unsafe expressions). It charges one op per input row. Its groups are never captured for incremental
// maintenance: that state comes only from finalizeGroups
// (projectEmitted).
func (e *Session) projectCentral(c *compiled, t *table, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	if t == nil {
		t = unitTable()
		t.rows = nil
	}
	e.eng.AddExternal(0, 0, int64(len(t.rows)))
	blk := c.blk
	if blk.HasAgg || len(blk.Sel.GroupBy) > 0 {
		setup := newAggSetup(blk)
		var pg partialGroups
		forms := sql.CompileAll(setup.perRow, sql.Binding(t.index))
		if _, _, err := newGroupObserver(c, setup, outer, subq).observe(&pg, t.header, forms, t.rows, nil); err != nil {
			return nil, err
		}
		return projectGroups(c, setup, pg.groups, t.header, outer, subq)
	}
	out := relation.New("result", blk.OutputSchema())
	items := make([]sql.Compiled, len(blk.Sel.Items))
	for i, item := range blk.Sel.Items {
		items[i] = sql.Compile(item.Expr, sql.Binding(t.index))
	}
	for _, row := range t.rows {
		tup, err := sql.EvalAll(items, row, outer, subq)
		if err != nil {
			return nil, err
		}
		out.Tuples = append(out.Tuples, tup)
	}
	return dedup(out, blk.Sel.Distinct), nil
}
