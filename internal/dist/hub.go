package dist

import (
	"fmt"
	"sync"

	"repro/internal/bsp"
)

// hub is the coordinator's collective state machine. Every collective
// round (StartRun, Barrier, FinishRun, QueryDone) gathers one deposit
// per partition — the coordinator's own node deposits in-process, the
// workers' deposits arrive from their control-connection readers — and
// the last depositor computes the reduction and releases everyone:
// workers by a pushed control frame, the local node by a cond wake.
// SPMD lockstep guarantees rounds never overlap, so one reusable set
// of slots suffices; a deposit for a different kind than the round in
// progress is a protocol violation and degrades the topology.
type hub struct {
	parts int

	mu   sync.Mutex
	cond *sync.Cond
	gen  uint64
	kind byte
	n    int
	err  error

	bfs   []bsp.BarrierFrame
	blobs [][]byte
	strs  []string
	gb    bsp.BarrierFrame
	out   [][]byte

	// broadcast pushes the completed round's release to every worker;
	// called by the last depositor with mu held (worker readers always
	// drain, so the writes cannot deadlock). Nil-safe for parts == 1.
	broadcast func(kind byte) error
	// onFail tears the topology down (closes connections); invoked at
	// most once, outside mu.
	onFail   func()
	failOnce sync.Once
}

func newHub(parts int) *hub {
	h := &hub{
		parts: parts,
		bfs:   make([]bsp.BarrierFrame, parts),
		blobs: make([][]byte, parts),
		strs:  make([]string, parts),
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// fail permanently degrades the hub: every blocked and future
// collective returns err, and the teardown hook runs once.
func (h *hub) fail(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.cond.Broadcast()
	h.mu.Unlock()
	h.failOnce.Do(func() {
		if h.onFail != nil {
			h.onFail()
		}
	})
}

// sticky returns the degradation error, if any.
func (h *hub) sticky() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// deposit records one partition's contribution to the current round
// and, when it is the last, reduces and releases. It never blocks on
// the round (worker readers must stay free to read); the local node
// uses await to both deposit and wait.
func (h *hub) deposit(part int, kind byte, bf *bsp.BarrierFrame, blob []byte, str string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.depositLocked(part, kind, bf, blob, str)
}

func (h *hub) depositLocked(part int, kind byte, bf *bsp.BarrierFrame, blob []byte, str string) error {
	if h.err != nil {
		return h.err
	}
	if h.n == 0 {
		h.kind = kind
	} else if kind != h.kind {
		err := fmt.Errorf("dist: node %d deposited %#x into a %#x round — topology out of lockstep", part, kind, h.kind)
		h.failLocked(err)
		return err
	}
	switch kind {
	case ckBarrier:
		h.bfs[part] = *bf
	case ckFinishRun:
		h.blobs[part] = blob
	case ckQueryDone:
		h.strs[part] = str
	}
	h.n++
	if h.n == h.parts {
		switch kind {
		case ckBarrier:
			h.gb = bsp.ReduceBarrier(h.bfs)
		case ckFinishRun:
			h.out = append([][]byte(nil), h.blobs...)
		}
		if h.broadcast != nil && kind != ckQueryDone {
			if err := h.broadcast(kind); err != nil {
				h.failLocked(err)
				return h.err
			}
		}
		h.n = 0
		h.gen++
		h.cond.Broadcast()
	}
	return nil
}

// failLocked mirrors fail for callers already holding mu; the teardown
// hook still runs outside the lock (on a fresh goroutine, since the
// caller keeps holding it).
func (h *hub) failLocked(err error) {
	if h.err == nil {
		h.err = err
	}
	h.cond.Broadcast()
	go h.failOnce.Do(func() {
		if h.onFail != nil {
			h.onFail()
		}
	})
}

// await is the local node's collective call: deposit partition 0's
// contribution and block until the round completes, then return the
// reduction. Worker deposits arriving from connection readers complete
// the round without blocking anyone.
func (h *hub) await(kind byte, bf *bsp.BarrierFrame, blob []byte, str string) (bsp.BarrierFrame, [][]byte, []string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	gen := h.gen
	if err := h.depositLocked(0, kind, bf, blob, str); err != nil {
		return bsp.BarrierFrame{}, nil, nil, err
	}
	for gen == h.gen && h.err == nil {
		h.cond.Wait()
	}
	if h.err != nil {
		return bsp.BarrierFrame{}, nil, nil, h.err
	}
	strs := append([]string(nil), h.strs...)
	return h.gb, h.out, strs, nil
}

// coordColl adapts the hub to the collectives interface for the
// coordinator's own node (partition 0).
type coordColl struct{ h *hub }

func (c coordColl) startRun() error {
	_, _, _, err := c.h.await(ckStartRun, nil, nil, "")
	return err
}

func (c coordColl) barrier(bf bsp.BarrierFrame) (bsp.BarrierFrame, error) {
	gb, _, _, err := c.h.await(ckBarrier, &bf, nil, "")
	return gb, err
}

func (c coordColl) finishRun(blob []byte) ([][]byte, error) {
	_, blobs, _, err := c.h.await(ckFinishRun, nil, blob, "")
	return blobs, err
}
