package serve

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/tag"
)

// Pool is a bounded, lazily-filled pool of core.Sessions over one
// shared frozen TAG graph. Sessions are created on first demand, up to
// size, and reused afterwards. With the sparse message plane a fresh
// session costs O(#workers) rather than O(|V|), so a generation can
// start with zero sessions and warm up as queries arrive — publishing
// a write batch no longer pays `size` × O(|V|) inbox arrays up front.
type Pool struct {
	g      *tag.Graph
	engine bsp.Options

	free    chan *core.Session // sessions built and idle
	slots   chan struct{}      // remaining build budget
	created atomic.Int64
}

// NewPool bounds the pool at size sessions over g; none are built yet.
func NewPool(g *tag.Graph, engine bsp.Options, size int) *Pool {
	if size <= 0 {
		size = 1
	}
	p := &Pool{
		g:      g,
		engine: engine,
		free:   make(chan *core.Session, size),
		slots:  make(chan struct{}, size),
	}
	for i := 0; i < size; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// AcquireContext returns an idle session, or builds one if the pool is
// below its bound; otherwise the caller waits at most wait for one to
// free and is then refused with ErrOverloaded — the
// bounded-wait-then-refuse discipline that keeps an overloaded
// server's queue from growing without limit. A ctx cancelled while
// waiting, or whose deadline passed, returns its error instead (the
// caller gave up; that is a cancellation, not an overload). The
// caller owns the session exclusively until Release.
func (p *Pool) AcquireContext(ctx context.Context, wait time.Duration) (*core.Session, error) {
	select {
	case s := <-p.free:
		return s, nil
	default:
	}
	select {
	case s := <-p.free:
		return s, nil
	case <-p.slots:
		p.created.Add(1)
		return core.NewSession(p.g, p.engine), nil
	default:
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case s := <-p.free:
		return s, nil
	case <-p.slots:
		p.created.Add(1)
		return core.NewSession(p.g, p.engine), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
		// A deadline that passed while we waited is a timeout, not an
		// overload, even before ctx notices: ctx.Err turns non-nil only
		// when a runtime timer fires, so the deadline is read as a
		// wall-clock fact, as core.Session.RunContext does.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return nil, context.DeadlineExceeded
		}
		return nil, ErrOverloaded
	}
}

// Release returns a session to the pool.
func (p *Pool) Release(s *core.Session) {
	p.free <- s
}

// Size returns the pool capacity.
func (p *Pool) Size() int { return cap(p.free) }

// Created returns how many sessions the pool has actually built.
func (p *Pool) Created() int { return int(p.created.Load()) }
