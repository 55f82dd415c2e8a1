package bsp

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// orderProgram sends several payloads into shared destinations: every
// vertex sends an int64 along its edges, every other vertex also sends
// a string along them, and every vertex sends two strings to one of
// five hubs, which its mesh neighbours also reach. Each vertex emits its
// whole inbox as an ordered string of (From, Count, Payload), so any
// change to the order of one inbox — or, combined, to its one message's
// first sender, count or total — changes the emit stream.
type orderProgram struct {
	lbl     LabelID
	hops    int
	comb    bool // declare weightCombiner as the combiner
	clobber bool // append to the inbox after reading it
}

func (p *orderProgram) Combiner() Combiner {
	if p.comb {
		return weightCombiner{}
	}
	return nil
}

// weightCombiner folds orderProgram's payloads into one int64 total: an
// int64 weighs its value, a string its length. Addition is insensitive
// to how the send stream is regrouped across partitions, as the
// Combiner contract requires.
type weightCombiner struct{}

func (weightCombiner) Fold(acc, payload any) any {
	w, _ := payload.(int64)
	if s, ok := payload.(string); ok {
		w = int64(len(s))
	}
	if acc == nil {
		return w
	}
	return acc.(int64) + w
}
func (weightCombiner) Merge(acc, other any) any { return acc.(int64) + other.(int64) }

func (p *orderProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	if len(inbox) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "%d@%d:", v, ctx.Step())
		for _, m := range inbox {
			fmt.Fprintf(&b, " (%d,%d,%v)", m.From, m.Count, m.Payload)
		}
		ctx.Emit(b.String())
	}
	if p.clobber {
		for i := 0; i < 3; i++ {
			inbox = append(inbox, Message{From: -1, Count: 1, Payload: "clobber"})
		}
	}
	if ctx.Step() >= p.hops {
		return
	}
	ctx.SendAlong(v, p.lbl, int64(v)*3+int64(ctx.Step()))
	if v%2 == 0 {
		ctx.SendAlong(v, p.lbl, fmt.Sprintf("s%d", v))
	}
	hub := v % 5
	ctx.Send(v, hub, fmt.Sprintf("h%d", v))
	ctx.Send(v, hub, "again")
}

// TestInboxOrderIsPinned: the order of every inbox — plain messages by
// sender, in send order per sender — and every combined message are the
// same on every worker count and partitioning, on loopback and on a
// multi-node run. The sum-only identity tests cannot see a plane that
// reorders an inbox; this one can. A program that appends to its inbox
// must not change any other vertex's inbox either. At one worker a
// superstep stages 832 deliveries into the one shard uncombined (128
// combined, one per vertex), and every hub's inbox holds about 50 plain
// messages, so the sorts behind seal and the nodes' by-sender order see
// real input.
func TestInboxOrderIsPinned(t *testing.T) {
	g, lbl := meshGraph(128, 3)
	var initial []VertexID
	for i := 0; i < 128; i++ {
		initial = append(initial, VertexID(i))
	}
	run := func(opts Options, prog Program) []any {
		eng := NewEngine(g, opts)
		eng.Run(prog, initial)
		if err := eng.RunErr(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		return append([]any(nil), eng.Emitted()...)
	}
	for _, tc := range []struct {
		name      string
		comb      bool
		noCombine bool
	}{
		{"combined", true, false},
		{"NoCombine", true, true},
		{"no combiner", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(clobber bool) func() Program {
				return func() Program { return &orderProgram{lbl: lbl, hops: 3, comb: tc.comb, clobber: clobber} }
			}
			want := run(Options{Workers: 1, NoCombine: tc.noCombine}, mk(false)())
			if len(want) == 0 {
				t.Fatal("no inbox was emitted")
			}
			check := func(label string, got []any) {
				t.Helper()
				if !slices.Equal(got, want) {
					for i := range min(len(got), len(want)) {
						if got[i] != want[i] {
							t.Fatalf("%s: emit %d = %v, want %v", label, i, got[i], want[i])
						}
					}
					t.Fatalf("%s: %d emits, want %d", label, len(got), len(want))
				}
			}
			for _, workers := range []int{1, 2, 4, 7} {
				for _, parts := range []int{1, 2, 3} {
					opts := Options{Workers: workers, Partitions: parts, NoCombine: tc.noCombine}
					check(fmt.Sprintf("workers=%d partitions=%d", workers, parts), run(opts, mk(false)()))
				}
				// Appending to an inbox must not reach another vertex's.
				check(fmt.Sprintf("workers=%d clobbering", workers),
					run(Options{Workers: workers, NoCombine: tc.noCombine}, mk(true)()))
			}
			if tc.noCombine {
				return // the nodes' NoCombine reference is the "no combiner" case
			}
			for _, parts := range []int{2, 3} {
				emits, _ := runDistNodes(t, g, parts, nil, mk(false), initial)
				check(fmt.Sprintf("%d nodes", parts), emits)
			}
		})
	}
}
