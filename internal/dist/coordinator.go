package dist

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
)

// Result is one distributed query's answer as the coordinator returns
// it: the rows its own node computed (byte-identical to every other
// node's copy), the execution report, and the query's globally agreed
// BSP cost.
type Result struct {
	Rows *relation.Relation
	Info core.ExecInfo
	Cost bsp.Stats
}

// workerLink is the coordinator's end of one worker's control
// connection.
type workerLink struct {
	part     int
	conn     net.Conn
	dataAddr string
	wmu      sync.Mutex
}

// Coordinator owns partition 0 of a topology and the control star:
// it admits workers, distributes the topology, drives the collective
// rounds through its hub, and runs every query on its own node too.
type Coordinator struct {
	cfg   Config
	build GraphBuilder
	token string

	ctrlLn net.Listener
	dataLn net.Listener
	accept *acceptPeers
	hub    *hub
	wire   wireCounters

	mu      sync.Mutex
	workers []*workerLink // index by part; [0] unused
	joined  int
	joinCh  chan struct{} // closed when the last worker joins
	readyCh chan struct{} // one send per worker READY

	g    *tag.Graph
	sess *core.Session
	n    *node

	formed  chan struct{} // closed when formation finishes (ok or not)
	formErr error         // valid after formed closes
	down    chan struct{} // closed by teardown
	downOne sync.Once

	qmu    sync.Mutex
	curQID atomic.Uint64
}

// Listen starts a coordinator: the control listener binds addr, the
// data-mesh listener binds an ephemeral port on the same host, and
// formation (graph build, worker admission, mesh, CLUSTERUP) proceeds
// in the background — WaitReady blocks until it completes. The builder
// runs once, concurrently with worker admission.
func Listen(addr string, cfg Config, build GraphBuilder) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ctrlLn, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	host, _, err := net.SplitHostPort(ctrlLn.Addr().String())
	if err != nil {
		ctrlLn.Close()
		return nil, err
	}
	dataLn, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		ctrlLn.Close()
		return nil, err
	}
	var tok [16]byte
	if _, err := rand.Read(tok[:]); err != nil {
		ctrlLn.Close()
		dataLn.Close()
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		build:   build,
		token:   hex.EncodeToString(tok[:]),
		ctrlLn:  ctrlLn,
		dataLn:  dataLn,
		hub:     newHub(cfg.Parts),
		workers: make([]*workerLink, cfg.Parts),
		joinCh:  make(chan struct{}),
		readyCh: make(chan struct{}, cfg.Parts),
		formed:  make(chan struct{}),
		down:    make(chan struct{}),
	}
	c.hub.broadcast = c.release
	c.hub.onFail = c.teardown
	c.accept = newAcceptPeers(dataLn, c.token, 0, cfg.Parts)
	if cfg.Parts == 1 {
		close(c.joinCh)
	}
	go c.ctrlAccept()
	go c.form()
	return c, nil
}

// Addr returns the control listener's address — what workers join.
func (c *Coordinator) Addr() string { return c.ctrlLn.Addr().String() }

// Parts returns the topology size (coordinator included).
func (c *Coordinator) Parts() int { return c.cfg.Parts }

// Wire returns this node's measured transport traffic.
func (c *Coordinator) Wire() WireStats { return c.wire.snapshot() }

// Degraded reports whether the topology has failed permanently.
func (c *Coordinator) Degraded() bool { return c.hub.sticky() != nil }

// WaitReady blocks until the topology is formed (every worker joined,
// meshed and acknowledged) and the coordinator's session exists.
func (c *Coordinator) WaitReady() error {
	<-c.formed
	if c.formErr != nil {
		return c.formErr
	}
	return c.hub.sticky()
}

// ctrlAccept admits control connections for the lifetime of the
// coordinator. Hostile or malformed connections are refused and
// closed without touching cluster state; JOINs past capacity (or
// after degradation) get an explicit refusal frame. The barrier plane
// is driven only by admitted workers, so no amount of fuzzing this
// port can wedge it.
func (c *Coordinator) ctrlAccept() {
	for {
		conn, err := c.ctrlLn.Accept()
		if err != nil {
			return
		}
		go c.admitCtrl(conn)
	}
}

func (c *Coordinator) admitCtrl(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(conn)
	payload, _, err := codec.ReadFrame(br)
	if err != nil || len(payload) == 0 || payload[0] != ckJoin {
		conn.Close()
		return
	}
	d := codec.NewDecoder(payload[1:])
	magic, err := d.Str()
	if err != nil || magic != joinMagic {
		conn.Close()
		return
	}
	dataAddr, err := d.Str()
	if err != nil || d.Finish() != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	c.mu.Lock()
	if c.hub.sticky() != nil || c.joined >= c.cfg.Parts-1 {
		c.mu.Unlock()
		c.refuse(conn, "cluster full or degraded")
		return
	}
	c.joined++
	part := c.joined
	l := &workerLink{part: part, conn: conn, dataAddr: dataAddr}
	c.workers[part] = l
	last := c.joined == c.cfg.Parts-1
	c.mu.Unlock()

	welcome := []byte{ckWelcome}
	welcome = binary.AppendUvarint(welcome, uint64(part))
	welcome = binary.AppendUvarint(welcome, uint64(c.cfg.Parts))
	welcome = codec.AppendString(welcome, c.cfg.DB)
	welcome = binary.LittleEndian.AppendUint64(welcome, math.Float64bits(c.cfg.Scale))
	welcome = binary.AppendVarint(welcome, c.cfg.Seed)
	welcome = codec.AppendString(welcome, c.token)
	if err := c.send(l, welcome); err != nil {
		c.hub.fail(fmt.Errorf("dist: welcoming worker %d: %w", part, err))
		return
	}
	go c.readWorker(l, br)
	if last {
		close(c.joinCh)
	}
}

func (c *Coordinator) refuse(conn net.Conn, reason string) {
	payload := codec.AppendString([]byte{ckRefuse}, reason)
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	codec.WriteFrame(conn, payload)
	conn.Close()
}

// form runs the formation sequence: build the graph, wait for every
// worker, broadcast the topology, complete the data mesh, collect
// READYs, then declare the cluster up and build the local session.
func (c *Coordinator) form() {
	defer close(c.formed)
	fail := func(err error) {
		c.formErr = err
		c.hub.fail(err)
	}
	g, err := c.build(c.cfg.DB, c.cfg.Scale, c.cfg.Seed)
	if err != nil {
		fail(fmt.Errorf("dist: coordinator graph build: %w", err))
		return
	}
	c.g = g

	deadline := time.After(c.cfg.FormTimeout)
	select {
	case <-c.joinCh:
	case <-c.down:
		fail(fmt.Errorf("dist: topology failed during join: %w", c.hub.sticky()))
		return
	case <-deadline:
		c.mu.Lock()
		joined := c.joined
		c.mu.Unlock()
		fail(fmt.Errorf("dist: formation timed out with %d of %d workers joined", joined, c.cfg.Parts-1))
		return
	}

	m := newMesh(0, c.cfg.Parts, &c.wire)
	if c.cfg.Parts > 1 {
		// Topology: entry 0 is the coordinator's data port with an empty
		// host — each worker substitutes the host it dialed the
		// coordinator at, so the one address every worker provably can
		// reach is the one it uses.
		_, dataPort, err := net.SplitHostPort(c.dataLn.Addr().String())
		if err != nil {
			fail(err)
			return
		}
		topo := []byte{ckTopology}
		topo = binary.AppendUvarint(topo, uint64(c.cfg.Parts))
		topo = codec.AppendString(topo, net.JoinHostPort("", dataPort))
		c.mu.Lock()
		links := append([]*workerLink(nil), c.workers[1:]...)
		c.mu.Unlock()
		for _, l := range links {
			topo = codec.AppendString(topo, l.dataAddr)
		}
		for _, l := range links {
			if err := c.send(l, topo); err != nil {
				fail(fmt.Errorf("dist: sending topology to worker %d: %w", l.part, err))
				return
			}
		}
		admittedPeers, err := c.accept.wait(c.cfg.FormTimeout)
		if err != nil {
			fail(err)
			return
		}
		for part, ad := range admittedPeers {
			m.attach(part, ad.conn, ad.br)
		}
		if err := m.seal(); err != nil {
			fail(err)
			return
		}
		for i := 0; i < c.cfg.Parts-1; i++ {
			select {
			case <-c.readyCh:
			case <-c.down:
				fail(fmt.Errorf("dist: topology failed before ready: %w", c.hub.sticky()))
				return
			case <-deadline:
				fail(fmt.Errorf("dist: formation timed out with %d of %d workers ready", i, c.cfg.Parts-1))
				return
			}
		}
		for _, l := range links {
			if err := c.send(l, []byte{ckClusterUp}); err != nil {
				fail(fmt.Errorf("dist: cluster-up to worker %d: %w", l.part, err))
				return
			}
		}
	}
	c.n = &node{parts: c.cfg.Parts, local: 0, mesh: m, coll: coordColl{c.hub}}
	c.sess = core.NewSession(g, bsp.Options{Workers: c.cfg.Workers, Partitions: c.cfg.Parts, Transport: c.n})
}

// readWorker owns one worker's control reads: collective deposits,
// READY during formation, QUERYDONE after queries. Any read error —
// including the EOF of a killed worker — degrades the topology
// immediately, whether or not a query is in flight.
func (c *Coordinator) readWorker(l *workerLink, br *bufio.Reader) {
	for {
		payload, nbytes, err := codec.ReadFrame(br)
		if err != nil {
			c.hub.fail(fmt.Errorf("dist: worker %d control link: %w", l.part, err))
			return
		}
		c.wire.controlBytesIn.Add(nbytes)
		if len(payload) == 0 {
			c.hub.fail(fmt.Errorf("dist: worker %d sent an empty control frame", l.part))
			return
		}
		switch payload[0] {
		case ckReady:
			c.readyCh <- struct{}{}
		case ckStartRun:
			err = c.hub.deposit(l.part, ckStartRun, nil, nil, "")
		case ckBarrier:
			d := codec.NewDecoder(payload[1:])
			bf, derr := decodeBarrierFrame(d)
			if derr == nil {
				derr = d.Finish()
			}
			if derr != nil {
				err = fmt.Errorf("dist: worker %d barrier frame: %w", l.part, derr)
				c.hub.fail(err)
				return
			}
			err = c.hub.deposit(l.part, ckBarrier, &bf, nil, "")
		case ckFinishRun:
			err = c.hub.deposit(l.part, ckFinishRun, nil, payload[1:], "")
		case ckQueryDone:
			d := codec.NewDecoder(payload[1:])
			qid, derr := d.Uvarint()
			var msg string
			if derr == nil {
				msg, derr = d.Str()
			}
			if derr == nil {
				derr = d.Finish()
			}
			if derr != nil || qid != c.curQID.Load() {
				err = fmt.Errorf("dist: worker %d query-done desync (qid %d, want %d)", l.part, qid, c.curQID.Load())
				c.hub.fail(err)
				return
			}
			err = c.hub.deposit(l.part, ckQueryDone, nil, nil, msg)
		default:
			err = fmt.Errorf("dist: worker %d sent unknown control kind %#x", l.part, payload[0])
			c.hub.fail(err)
			return
		}
		if err != nil {
			return
		}
	}
}

// release pushes a completed collective round to every worker. Called
// by the hub with its mutex held (the last depositor's goroutine);
// worker readers always drain their connections, so these writes make
// progress.
func (c *Coordinator) release(kind byte) error {
	var payload []byte
	switch kind {
	case ckStartRun:
		payload = []byte{ckStartRun}
	case ckBarrier:
		payload = appendBarrierFrame([]byte{ckBarrier}, c.hub.gb)
	case ckFinishRun:
		payload = []byte{ckFinishRun}
		payload = binary.AppendUvarint(payload, uint64(len(c.hub.out)))
		for _, blob := range c.hub.out {
			payload = binary.AppendUvarint(payload, uint64(len(blob)))
			payload = append(payload, blob...)
		}
	default:
		return fmt.Errorf("dist: no release for kind %#x", kind)
	}
	for _, l := range c.workers[1:] {
		if l == nil {
			return fmt.Errorf("dist: releasing into an unformed topology")
		}
		if err := c.send(l, payload); err != nil {
			return fmt.Errorf("dist: releasing %#x to worker %d: %w", kind, l.part, err)
		}
	}
	return nil
}

func (c *Coordinator) send(l *workerLink, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := codec.WriteFrame(l.conn, payload); err != nil {
		return err
	}
	c.wire.controlBytesOut.Add(int64(codec.HeaderSize + len(payload)))
	return nil
}

// Query runs one SQL query across the whole topology and returns the
// coordinator's copy of the (globally identical) answer. Queries
// serialize — the topology is one distributed engine, and its nodes
// advance in lockstep. A degraded topology refuses immediately with
// ErrDegraded.
func (c *Coordinator) Query(sql string) (*Result, error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	<-c.formed
	if c.formErr != nil {
		return nil, c.formErr
	}
	if err := c.hub.sticky(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	qid := c.curQID.Add(1)
	dispatch := []byte{ckQuery}
	dispatch = binary.AppendUvarint(dispatch, qid)
	dispatch = codec.AppendString(dispatch, sql)
	c.mu.Lock()
	links := append([]*workerLink(nil), c.workers[1:]...)
	c.mu.Unlock()
	for _, l := range links {
		if err := c.send(l, dispatch); err != nil {
			err = fmt.Errorf("dist: dispatching query to worker %d: %w", l.part, err)
			c.hub.fail(err)
			return nil, fmt.Errorf("%w: %v", ErrDegraded, err)
		}
	}
	before := c.sess.Stats()
	rows, qerr := c.sess.Query(sql)
	cost := c.sess.Stats().Sub(before)
	if derr := c.sess.DistErr(); derr != nil {
		// The engine is permanently latched on a transport failure;
		// tear the topology down so blocked workers unwedge.
		c.hub.fail(derr)
		return nil, fmt.Errorf("%w: %v", ErrDegraded, derr)
	}
	errstr := ""
	if qerr != nil {
		errstr = qerr.Error()
	}
	_, _, strs, err := c.hub.await(ckQueryDone, nil, nil, errstr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	for part := 1; part < c.cfg.Parts; part++ {
		if strs[part] != errstr {
			err := fmt.Errorf("dist: SPMD divergence on query %d: coordinator %q, worker %d %q",
				qid, errstr, part, strs[part])
			c.hub.fail(err)
			return nil, err
		}
	}
	if qerr != nil {
		return nil, qerr
	}
	return &Result{Rows: rows, Info: c.sess.Info, Cost: cost}, nil
}

// teardown closes every listener and connection; blocked collectives
// and reads error out. Runs once, on degradation or Close.
func (c *Coordinator) teardown() {
	c.downOne.Do(func() {
		close(c.down)
		c.ctrlLn.Close()
		c.dataLn.Close()
		c.mu.Lock()
		links := append([]*workerLink(nil), c.workers[1:]...)
		c.mu.Unlock()
		for _, l := range links {
			if l != nil {
				l.conn.Close()
			}
		}
		if c.n != nil {
			c.n.mesh.closeAll()
		}
	})
}

// Close shuts the topology down cleanly: workers receive SHUTDOWN (and
// exit their query loops with no error), then everything closes.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	links := append([]*workerLink(nil), c.workers[1:]...)
	c.mu.Unlock()
	for _, l := range links {
		if l != nil {
			c.send(l, []byte{ckShutdown})
		}
	}
	c.hub.fail(fmt.Errorf("dist: coordinator closed"))
	return nil
}
