package bsp

import (
	"fmt"
	"testing"
)

// BenchmarkMessagePlane measures the message plane alone: one superstep
// in which every vertex of a D-vertex graph sends N/D messages to
// scattered destinations, then the superstep that receives them. The
// vertex program does nothing else, so ns/op and allocs/op are the
// cost of staging, merging, sealing and looking up N deliveries —
// plain, or folded by SumCombiner. Payloads are small int64s, which Go
// boxes from its static cache; the combined rows also count
// SumCombiner boxing its running sums.
func BenchmarkMessagePlane(b *testing.B) {
	const sends = 1 << 16
	for _, dests := range []int{1 << 8, 1 << 14} {
		g := NewGraph()
		vl := g.Symbols.Intern("v")
		initial := make([]VertexID, dests)
		for i := range initial {
			initial[i] = g.AddVertex(vl, nil)
		}
		g.Freeze()
		fan := sends / dests
		send := ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
			if ctx.Step() == 0 {
				for i := 0; i < fan; i++ {
					ctx.Send(v, VertexID((int(v)*7+i*13)%dests), int64(i&0xff))
				}
			}
		})
		for _, combined := range []bool{false, true} {
			var prog Program = send
			if combined {
				prog = WithCombiner(send, SumCombiner{})
			}
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("dests=%d/combined=%v/workers=%d", dests, combined, workers)
				b.Run(name, func(b *testing.B) {
					eng := NewEngine(g, Options{Workers: workers})
					eng.Run(prog, initial)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng.Run(prog, initial)
					}
				})
			}
		}
	}
}
