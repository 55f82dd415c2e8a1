package bsp

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

// cancelAtStep wraps a program so that cancel fires from inside the
// chosen superstep's Compute, modeling a serving-layer deadline landing
// mid-run.
type cancelAtStep struct {
	Program
	step   int
	cancel context.CancelFunc
}

func (c *cancelAtStep) Compute(ctx *Context, v VertexID, inbox []Message) {
	if ctx.Step() == c.step {
		c.cancel()
	}
	c.Program.Compute(ctx, v, inbox)
}

// starvedDeadlineCtx models a context whose deadline has passed but
// whose runtime timer never fired — the GOMAXPROCS=1 failure mode where
// a compute-bound run holds the only P, so ctx.Err() stays nil for the
// whole deadline window. The engine must honor the wall-clock deadline
// anyway.
type starvedDeadlineCtx struct {
	dl   time.Time
	done chan struct{}
}

func (c starvedDeadlineCtx) Deadline() (time.Time, bool) { return c.dl, true }
func (c starvedDeadlineCtx) Done() <-chan struct{}       { return c.done }
func (c starvedDeadlineCtx) Err() error                  { return nil } // the timer is starved
func (c starvedDeadlineCtx) Value(any) any               { return nil }

// runOutcome is what one Engine.Run left behind.
type runOutcome struct {
	stats Stats
	emits []any
}

// runFn is Engine.Run as a scenario sees it: it also records the run's
// outcome. A scenario is a sequence of Runs on one engine.
type (
	runFn      = func(Program, []VertexID) Stats
	scenarioFn = func(eng *Engine, run runFn)
)

func execScenario(eng *Engine, scenario scenarioFn) []runOutcome {
	var outs []runOutcome
	scenario(eng, func(prog Program, initial []VertexID) Stats {
		stats := eng.Run(prog, initial)
		outs = append(outs, runOutcome{stats: stats, emits: slices.Clone(eng.Emitted())})
		return stats
	})
	return outs
}

// execOnTransports runs scenario on each of the three ways a Run can be
// wired — one partition, a two-partition loopback, and a two-node
// memHub, where it runs on both nodes at once and they must agree — and
// checks the three leave the same outcomes.
func execOnTransports(t *testing.T, g *Graph, opts Options, scenario scenarioFn) {
	t.Helper()
	single := execScenario(NewEngine(g, opts), scenario)
	opts.Partitions = 2
	loopback := execScenario(NewEngine(g, opts), scenario)

	hub := newMemHub(2)
	nodes := make([][]runOutcome, 2)
	var wg sync.WaitGroup
	for p := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.Transport = hub.node(p)
			nodes[p] = execScenario(NewEngine(g, o), scenario)
		}()
	}
	wg.Wait()

	sameOutcomes(t, "partitions=1 vs loopback-2", single, loopback, true)
	sameOutcomes(t, "hub node 0 vs loopback-2", nodes[0], loopback, false)
	sameOutcomes(t, "hub node 1 vs loopback-2", nodes[1], loopback, false)
}

// sameOutcomes compares two transports' outcome lists run by run.
// modNetwork ignores the network accounting, which a single partition
// does not have.
func sameOutcomes(t *testing.T, label string, got, want []runOutcome, modNetwork bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d runs, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i].stats, want[i].stats
		if modNetwork {
			g.NetworkMessages, g.NetworkBytes, w.NetworkMessages, w.NetworkBytes = 0, 0, 0, 0
		}
		if g != w {
			t.Errorf("%s: run %d stats %v, want %v", label, i, g, w)
		}
		if !slices.Equal(got[i].emits, want[i].emits) {
			t.Errorf("%s: run %d emitted %v, want %v", label, i, got[i].emits, want[i].emits)
		}
	}
}

// TestLoopControl drives every way out of the superstep loop — a
// program failure, the MaxSupersteps guard, a cancel landing mid-run, a
// context dead on arrival, a deadline whose timer never fired — over all
// three transports. The loop exists once, so each exit must leave identical
// Stats and Emitted() however the Run is wired (a node that is not the
// one that saw the cancel learns of it from the barrier), and an engine
// that can run the full chain propagation afterwards.
func TestLoopControl(t *testing.T) {
	const n = 12
	chain, lbl := chainGraph(n)
	propagate := &propagateProgram{lbl: lbl}
	// rerun checks the engine came out of the exit clean: disarmed, the
	// full propagation runs to the end with the exact chain counts.
	rerun := func(t *testing.T, eng *Engine, run runFn) {
		eng.SetContext(nil)
		stats := run(propagate, []VertexID{0})
		if stats.Supersteps != n || stats.Messages != n-1 {
			t.Errorf("rerun stats = %v, want %d supersteps and %d messages", stats, n, n-1)
		}
		if out := eng.Emitted(); len(out) != 1 || out[0].(int) != n-1 {
			t.Errorf("rerun emitted %v, want [%d]", out, n-1)
		}
	}

	selfLoop := NewGraph()
	self := selfLoop.Symbols.Intern("self")
	selfLoop.AddEdge(selfLoop.AddVertex(self, nil), 0, self)
	selfLoop.Freeze()

	for _, row := range []struct {
		name     string
		g        *Graph
		opts     Options
		scenario func(t *testing.T, eng *Engine, run runFn)
	}{
		{"program-failure", chain, Options{Workers: 1}, func(t *testing.T, eng *Engine, run runFn) {
			if stats := run(&failAfterSend{lbl: lbl}, []VertexID{0}); stats.Supersteps != 1 {
				t.Errorf("supersteps = %d, want 1 (the program failed)", stats.Supersteps)
			}
			rerun(t, eng, run)
		}},
		{"max-supersteps", selfLoop, Options{Workers: 1, MaxSupersteps: 7}, func(t *testing.T, eng *Engine, run runFn) {
			// Self-loop ping-pong would run forever without the guard.
			pingPong := ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
				ctx.Emit(ctx.SendAlong(v, self, nil))
			})
			for range 2 {
				if stats := run(pingPong, []VertexID{0}); stats.Supersteps != 7 {
					t.Errorf("supersteps = %d, want 7", stats.Supersteps)
				}
			}
		}},
		{"canceled-mid-run", chain, Options{Workers: 4}, func(t *testing.T, eng *Engine, run runFn) {
			// Cancel during superstep 4: the run must stop at that
			// superstep's barrier, partway down the chain.
			ctx, cancel := context.WithCancel(context.Background())
			eng.SetContext(ctx)
			stats := run(&cancelAtStep{Program: propagate, step: 4, cancel: cancel}, []VertexID{0})
			if stats.Supersteps != 5 {
				t.Errorf("canceled run took %d supersteps, want 5", stats.Supersteps)
			}
			if len(eng.Emitted()) != 0 {
				t.Errorf("canceled run emitted %v, want nothing", eng.Emitted())
			}
			// A context canceled before Run stops at the first barrier.
			cancel()
			eng.SetContext(ctx)
			if stats = run(propagate, []VertexID{0}); stats.Supersteps != 0 {
				t.Errorf("pre-canceled run took %d supersteps, want 0", stats.Supersteps)
			}
			rerun(t, eng, run)
		}},
		{"deadline-without-timer", chain, Options{Workers: 1}, func(t *testing.T, eng *Engine, run runFn) {
			// ctx.Err() still answers nil — barriers compare clocks, they
			// do not trust the runtime timer that would mark the context
			// done.
			eng.SetContext(starvedDeadlineCtx{dl: time.Now().Add(-time.Millisecond), done: make(chan struct{})})
			if stats := run(propagate, []VertexID{0}); stats.Supersteps != 0 {
				t.Errorf("expired-deadline run took %d supersteps, want 0", stats.Supersteps)
			}
			rerun(t, eng, run)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			execOnTransports(t, row.g, row.opts, func(eng *Engine, run runFn) { row.scenario(t, eng, run) })
		})
	}
}
