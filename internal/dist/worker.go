package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/tag"
)

// workerFormTimeout bounds the worker's side of cluster formation —
// how long it waits for TOPOLOGY (the coordinator may still be
// building its graph or waiting for other joiners), the mesh, and
// CLUSTERUP.
const workerFormTimeout = 5 * time.Minute

// ctrlMsg is one collective release pushed down the control
// connection; payload excludes the leading kind byte.
type ctrlMsg struct {
	kind    byte
	payload []byte
}

// queryMsg is one dispatched query.
type queryMsg struct {
	id  uint64
	sql string
}

// Worker is one non-coordinator node: it joins a coordinator, builds
// the identical graph, meshes with its peers, and then runs every
// dispatched query through its own full session — computing the same
// answer as every other node, with its partition's share of the data
// exchange on the wire.
type Worker struct {
	conn net.Conn
	wmu  sync.Mutex
	wire wireCounters

	part  int
	parts int
	token string

	g      *tag.Graph
	sess   *core.Session
	m      *mesh
	n      *node
	dataLn net.Listener

	ctrl    chan ctrlMsg
	queries chan queryMsg

	mu    sync.Mutex
	err   error
	clean bool

	done chan struct{}

	// formBR carries the control connection's buffered reader from
	// formation to the reader goroutine.
	formBR *bufio.Reader
}

// Join connects to a coordinator, completes formation (JOIN → WELCOME
// → graph build → TOPOLOGY → mesh → READY → CLUSTERUP), and returns a
// Worker already serving queries in the background. workers is the
// node's local BSP worker count (local parallelism only — it never
// changes answers or accounting).
func Join(coordAddr string, workers int, build GraphBuilder) (*Worker, error) {
	conn, err := net.DialTimeout("tcp", coordAddr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		conn:    conn,
		ctrl:    make(chan ctrlMsg, 2),
		queries: make(chan queryMsg, 4),
		done:    make(chan struct{}),
	}
	if err := w.form(coordAddr, workers, build); err != nil {
		conn.Close()
		if w.dataLn != nil {
			w.dataLn.Close()
		}
		if w.m != nil {
			w.m.closeAll()
		}
		return nil, err
	}
	br := w.formBR
	w.formBR = nil
	go w.readCtrl(br)
	go w.runLoop()
	return w, nil
}

func (w *Worker) form(coordAddr string, workers int, build GraphBuilder) error {
	// The data listener binds the interface that reaches the
	// coordinator, so the address we advertise is one our peers (on the
	// same network) can dial.
	localHost, _, err := net.SplitHostPort(w.conn.LocalAddr().String())
	if err != nil {
		return err
	}
	dataLn, err := net.Listen("tcp", net.JoinHostPort(localHost, "0"))
	if err != nil {
		return err
	}
	w.dataLn = dataLn

	join := []byte{ckJoin}
	join = codec.AppendString(join, joinMagic)
	join = codec.AppendString(join, dataLn.Addr().String())
	if err := w.send(join); err != nil {
		return fmt.Errorf("dist: joining %s: %w", coordAddr, err)
	}

	br := bufio.NewReader(w.conn)
	payload, err := w.readCtrlFrame(br, handshakeTimeout)
	if err != nil {
		return fmt.Errorf("dist: awaiting welcome: %w", err)
	}
	if len(payload) > 0 && payload[0] == ckRefuse {
		d := codec.NewDecoder(payload[1:])
		reason, _ := d.Str()
		return fmt.Errorf("dist: coordinator refused join: %s", reason)
	}
	if len(payload) == 0 || payload[0] != ckWelcome {
		return fmt.Errorf("dist: expected welcome, got kind %#x", frameKind(payload))
	}
	d := codec.NewDecoder(payload[1:])
	part64, err := d.Uvarint()
	if err != nil {
		return err
	}
	parts64, err := d.Uvarint()
	if err != nil {
		return err
	}
	db, err := d.Str()
	if err != nil {
		return err
	}
	scaleRaw, err := d.Take(8)
	if err != nil {
		return err
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(scaleRaw))
	seed, err := d.Varint()
	if err != nil {
		return err
	}
	token, err := d.Str()
	if err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	w.part, w.parts, w.token = int(part64), int(parts64), token
	if w.part < 1 || w.part >= w.parts {
		return fmt.Errorf("dist: welcome assigned partition %d of %d", w.part, w.parts)
	}

	accept := newAcceptPeers(dataLn, token, w.part, w.parts)
	g, err := build(db, scale, seed)
	if err != nil {
		return fmt.Errorf("dist: worker graph build: %w", err)
	}
	w.g = g

	payload, err = w.readCtrlFrame(br, workerFormTimeout)
	if err != nil {
		return fmt.Errorf("dist: awaiting topology: %w", err)
	}
	if len(payload) == 0 || payload[0] != ckTopology {
		return fmt.Errorf("dist: expected topology, got kind %#x", frameKind(payload))
	}
	d = codec.NewDecoder(payload[1:])
	n64, err := d.Uvarint()
	if err != nil {
		return err
	}
	if int(n64) != w.parts {
		return fmt.Errorf("dist: topology lists %d nodes, expected %d", n64, w.parts)
	}
	addrs := make([]string, w.parts)
	for i := range addrs {
		if addrs[i], err = d.Str(); err != nil {
			return err
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	// The coordinator's entry has an empty host: fill in the host we
	// dialed it at — the one address we know reaches it.
	if host, port, err := net.SplitHostPort(addrs[0]); err == nil && host == "" {
		coordHost, _, err := net.SplitHostPort(w.conn.RemoteAddr().String())
		if err != nil {
			return err
		}
		addrs[0] = net.JoinHostPort(coordHost, port)
	}

	w.m = newMesh(w.part, w.parts, &w.wire)
	for i := 0; i < w.part; i++ {
		pc, err := dialPeer(addrs[i], token, w.part)
		if err != nil {
			return fmt.Errorf("dist: dialing node %d at %s: %w", i, addrs[i], err)
		}
		w.m.attach(i, pc, nil)
	}
	admittedPeers, err := accept.wait(workerFormTimeout)
	if err != nil {
		return err
	}
	for part, ad := range admittedPeers {
		w.m.attach(part, ad.conn, ad.br)
	}
	if err := w.m.seal(); err != nil {
		return err
	}

	if err := w.send([]byte{ckReady}); err != nil {
		return fmt.Errorf("dist: sending ready: %w", err)
	}
	payload, err = w.readCtrlFrame(br, workerFormTimeout)
	if err != nil {
		return fmt.Errorf("dist: awaiting cluster-up: %w", err)
	}
	if len(payload) == 0 || payload[0] != ckClusterUp {
		return fmt.Errorf("dist: expected cluster-up, got kind %#x", frameKind(payload))
	}

	w.n = &node{parts: w.parts, local: w.part, mesh: w.m, coll: workerColl{w}}
	w.sess = core.NewSession(g, bsp.Options{Workers: workers, Partitions: w.parts, Transport: w.n})
	w.formBR = br
	return nil
}

func frameKind(payload []byte) byte {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// Part returns this worker's partition number.
func (w *Worker) Part() int { return w.part }

// Parts returns the topology size.
func (w *Worker) Parts() int { return w.parts }

// Wire returns this node's measured transport traffic.
func (w *Worker) Wire() WireStats { return w.wire.snapshot() }

// Err returns the error that took this worker out of the query plane,
// or nil while healthy (and after a clean shutdown).
func (w *Worker) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.clean {
		return nil
	}
	return w.err
}

// Wait blocks until the worker leaves the query plane — a clean
// SHUTDOWN from the coordinator (returns nil) or a failure (returns
// the cause).
func (w *Worker) Wait() error {
	<-w.done
	return w.Err()
}

// Close forces the worker out: it severs the control connection, which
// unwinds the reader, the query loop, and any in-flight collective.
func (w *Worker) Close() error {
	w.fail(fmt.Errorf("dist: worker closed"))
	w.conn.Close()
	return nil
}

func (w *Worker) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *Worker) markClean() {
	w.mu.Lock()
	w.clean = true
	w.mu.Unlock()
}

func (w *Worker) lastErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.clean {
		return fmt.Errorf("dist: coordinator shut the cluster down mid-run")
	}
	return fmt.Errorf("dist: control connection closed")
}

func (w *Worker) send(payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := codec.WriteFrame(w.conn, payload); err != nil {
		return err
	}
	w.wire.controlBytesOut.Add(int64(codec.HeaderSize + len(payload)))
	return nil
}

func (w *Worker) readCtrlFrame(br *bufio.Reader, timeout time.Duration) ([]byte, error) {
	w.conn.SetReadDeadline(time.Now().Add(timeout))
	payload, n, err := codec.ReadFrame(br)
	if err != nil {
		return nil, err
	}
	w.conn.SetReadDeadline(time.Time{})
	w.wire.controlBytesIn.Add(n)
	return payload, nil
}

// readCtrl owns all post-formation reads of the control connection. It
// routes query dispatches to the run loop and collective releases to
// whatever collective call is blocked, and it is the single closer of
// both channels — on SHUTDOWN (clean) or any read error (failure),
// closing them unwinds the run loop and any blocked collective.
func (w *Worker) readCtrl(br *bufio.Reader) {
	defer func() {
		close(w.ctrl)
		close(w.queries)
	}()
	for {
		payload, n, err := codec.ReadFrame(br)
		if err != nil {
			w.fail(fmt.Errorf("dist: control connection: %w", err))
			return
		}
		w.wire.controlBytesIn.Add(n)
		if len(payload) == 0 {
			w.fail(fmt.Errorf("dist: empty control frame"))
			return
		}
		switch payload[0] {
		case ckQuery:
			d := codec.NewDecoder(payload[1:])
			qid, err := d.Uvarint()
			var sql string
			if err == nil {
				sql, err = d.Str()
			}
			if err == nil {
				err = d.Finish()
			}
			if err != nil {
				w.fail(fmt.Errorf("dist: query dispatch frame: %w", err))
				return
			}
			w.queries <- queryMsg{id: qid, sql: sql}
		case ckStartRun, ckBarrier, ckFinishRun:
			w.ctrl <- ctrlMsg{kind: payload[0], payload: payload[1:]}
		case ckShutdown:
			w.markClean()
			return
		default:
			w.fail(fmt.Errorf("dist: unknown control kind %#x", payload[0]))
			return
		}
	}
}

// runLoop executes dispatched queries in order. Every node runs the
// same orchestration on the same graph, so this worker's answer (and
// its error, if any) matches the coordinator's; QUERYDONE reports the
// error string so the coordinator can verify SPMD agreement.
func (w *Worker) runLoop() {
	for q := range w.queries {
		_, qerr := w.sess.Query(q.sql)
		if derr := w.sess.DistErr(); derr != nil {
			// Transport failure: the engine is permanently latched, so
			// this node can never serve another distributed query.
			w.fail(derr)
			break
		}
		errstr := ""
		if qerr != nil {
			errstr = qerr.Error()
		}
		done := []byte{ckQueryDone}
		done = binary.AppendUvarint(done, q.id)
		done = codec.AppendString(done, errstr)
		if err := w.send(done); err != nil {
			w.fail(fmt.Errorf("dist: reporting query done: %w", err))
			break
		}
	}
	w.conn.Close()
	w.m.closeAll()
	w.dataLn.Close()
	close(w.done)
}

// awaitCtrl blocks for the next collective release and checks its
// kind; a mismatch means the node desynced from the topology, which is
// unrecoverable.
func (w *Worker) awaitCtrl(want byte) (ctrlMsg, error) {
	m, ok := <-w.ctrl
	if !ok {
		return ctrlMsg{}, w.lastErr()
	}
	if m.kind != want {
		err := fmt.Errorf("dist: collective desync: awaited %#x, released %#x", want, m.kind)
		w.fail(err)
		w.conn.Close()
		return ctrlMsg{}, err
	}
	return m, nil
}

// workerColl implements the collectives over the control connection:
// send the local contribution, block for the coordinator's release.
type workerColl struct{ w *Worker }

func (wc workerColl) startRun() error {
	if err := wc.w.send([]byte{ckStartRun}); err != nil {
		return err
	}
	_, err := wc.w.awaitCtrl(ckStartRun)
	return err
}

func (wc workerColl) barrier(bf bsp.BarrierFrame) (bsp.BarrierFrame, error) {
	if err := wc.w.send(appendBarrierFrame([]byte{ckBarrier}, bf)); err != nil {
		return bsp.BarrierFrame{}, err
	}
	m, err := wc.w.awaitCtrl(ckBarrier)
	if err != nil {
		return bsp.BarrierFrame{}, err
	}
	d := codec.NewDecoder(m.payload)
	gb, err := decodeBarrierFrame(d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		err = fmt.Errorf("dist: barrier release frame: %w", err)
		wc.w.fail(err)
		wc.w.conn.Close()
		return bsp.BarrierFrame{}, err
	}
	return gb, nil
}

func (wc workerColl) finishRun(blob []byte) ([][]byte, error) {
	if err := wc.w.send(append([]byte{ckFinishRun}, blob...)); err != nil {
		return nil, err
	}
	m, err := wc.w.awaitCtrl(ckFinishRun)
	if err != nil {
		return nil, err
	}
	d := codec.NewDecoder(m.payload)
	n, err := d.Length()
	if err != nil {
		return nil, err
	}
	if n != wc.w.parts {
		return nil, fmt.Errorf("dist: finish-run release carries %d blobs, expected %d", n, wc.w.parts)
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		ln, err := d.Length()
		if err != nil {
			return nil, err
		}
		if out[i], err = d.Take(ln); err != nil {
			return nil, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}
