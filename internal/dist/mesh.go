package dist

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bsp"
	"repro/internal/codec"
)

// This file is the data mesh: one persistent TCP connection per
// unordered node pair (the higher-numbered node dials the lower), each
// direction carrying exactly one codec frame per superstep — the
// sealed records frame internal/bsp built for that ordered pair.
// Nothing else rides these connections, so source and destination are
// implicit in the pair, and the bytes a node writes are exactly the
// bytes the engine priced: codec.HeaderSize + len(payload) per frame.

// peer is one mesh connection as seen from the local node.
type peer struct {
	part int
	conn net.Conn
	br   *bufio.Reader

	// ch receives incoming frame payloads from the reader goroutine;
	// it is closed (after recording err) when the connection dies. The
	// lockstep protocol keeps at most one frame in flight per
	// direction, so a small buffer never blocks the reader.
	ch chan []byte

	mu  sync.Mutex
	err error
}

func (p *peer) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *peer) lastErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		return fmt.Errorf("dist: mesh connection to node %d closed", p.part)
	}
	return p.err
}

// readLoop pumps incoming frames into p.ch until the connection dies.
func (p *peer) readLoop(wire *wireCounters) {
	for {
		payload, n, err := codec.ReadFrame(p.br)
		if err != nil {
			p.fail(fmt.Errorf("dist: mesh read from node %d: %w", p.part, err))
			close(p.ch)
			return
		}
		wire.dataBytesIn.Add(n)
		wire.dataFramesIn.Add(1)
		p.ch <- payload
	}
}

// mesh is a node's full set of peer connections, ordered by partition.
type mesh struct {
	local int
	parts int
	peers []*peer // ascending part, local excluded; empty at parts == 1
	wire  *wireCounters
}

func newMesh(local, parts int, wire *wireCounters) *mesh {
	return &mesh{local: local, parts: parts, wire: wire}
}

// attach registers an established, validated peer connection and
// starts its reader. br carries any bytes the handshake's buffered
// reader already consumed from the connection; nil on the dialing
// side, which hands over the raw connection.
func (m *mesh) attach(part int, conn net.Conn, br *bufio.Reader) {
	if br == nil {
		br = bufio.NewReader(conn)
	}
	p := &peer{part: part, conn: conn, br: br, ch: make(chan []byte, 4)}
	m.peers = append(m.peers, p)
	go p.readLoop(m.wire)
}

// seal sorts the peers into ascending-partition order (the delivery
// order exchange returns) and verifies the mesh is complete.
func (m *mesh) seal() error {
	if len(m.peers) != m.parts-1 {
		return fmt.Errorf("dist: node %d meshed %d of %d peers", m.local, len(m.peers), m.parts-1)
	}
	for i := 1; i < len(m.peers); i++ {
		for j := i; j > 0 && m.peers[j-1].part > m.peers[j].part; j-- {
			m.peers[j-1], m.peers[j] = m.peers[j], m.peers[j-1]
		}
	}
	return nil
}

func (m *mesh) peerFor(part int) *peer {
	for _, p := range m.peers {
		if p.part == part {
			return p
		}
	}
	return nil
}

// exchange implements the Transport exchange over the mesh: write this
// node's sealed frame to each peer, then collect each peer's frame,
// returning them in ascending source-partition order — the same
// deterministic delivery order the in-memory transport (and the
// loopback merge) uses.
func (m *mesh) exchange(out []bsp.Frame) ([]bsp.Frame, error) {
	for i := range out {
		f := &out[i]
		p := m.peerFor(f.Dst)
		if p == nil {
			return nil, fmt.Errorf("dist: sealed frame for unknown partition %d", f.Dst)
		}
		if err := codec.WriteFrame(p.conn, f.Payload); err != nil {
			return nil, fmt.Errorf("dist: mesh write to node %d: %w", p.part, err)
		}
		m.wire.dataBytesOut.Add(int64(codec.HeaderSize + len(f.Payload)))
		m.wire.dataFramesOut.Add(1)
		if n := bsp.FrameRecordCount(f.Payload); n >= 0 {
			m.wire.dataRecordsOut.Add(n)
		}
	}
	in := make([]bsp.Frame, 0, len(m.peers))
	for _, p := range m.peers {
		payload, ok := <-p.ch
		if !ok {
			return nil, p.lastErr()
		}
		in = append(in, bsp.Frame{Src: p.part, Dst: m.local, Payload: payload})
	}
	return in, nil
}

func (m *mesh) closeAll() {
	for _, p := range m.peers {
		p.conn.Close()
	}
}

// dialPeer opens this node's half of one pair connection: dial the
// lower-numbered node's data address and present the cluster token and
// our partition.
func dialPeer(addr, token string, from int) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	hello := appendPeerHello([]byte{ckPeer}, peerHello{token: token, from: from})
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if err := codec.WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// admitted is one validated inbound pair connection, carrying the
// handshake's buffered reader so no early bytes are lost.
type admitted struct {
	conn net.Conn
	br   *bufio.Reader
}

// acceptPeers owns a node's data listener: it validates every incoming
// connection's PEER handshake (cluster token, dialer partition in
// (local, parts), no duplicates) and collects admitted pairs. Invalid
// or hostile connections — garbage bytes, a wrong token, a replayed
// partition — are closed without any effect on the mesh, and the loop
// keeps accepting, so fuzzing the data port can never wedge a barrier.
// The loop exits when the listener closes.
type acceptPeers struct {
	ln    net.Listener
	token string
	local int
	parts int

	mu   sync.Mutex
	seen map[int]admitted
	done chan struct{} // closed once every expected dialer arrived
}

func newAcceptPeers(ln net.Listener, token string, local, parts int) *acceptPeers {
	a := &acceptPeers{
		ln: ln, token: token, local: local, parts: parts,
		seen: make(map[int]admitted),
		done: make(chan struct{}),
	}
	if parts-1-local == 0 {
		close(a.done) // highest-numbered node: nobody dials us
	}
	go a.loop()
	return a
}

func (a *acceptPeers) loop() {
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go a.admit(conn)
	}
}

func (a *acceptPeers) admit(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(conn)
	payload, _, err := codec.ReadFrame(br)
	if err != nil || len(payload) == 0 || payload[0] != ckPeer {
		conn.Close()
		return
	}
	hello, err := decodePeerHello(payload[1:])
	from := hello.from
	// Only higher-numbered nodes dial us, each exactly once.
	if err != nil || hello.token != a.token || from <= a.local || from >= a.parts {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	a.mu.Lock()
	if _, dup := a.seen[from]; dup {
		a.mu.Unlock()
		conn.Close()
		return
	}
	a.seen[from] = admitted{conn: conn, br: br}
	if len(a.seen) == a.parts-1-a.local {
		close(a.done)
	}
	a.mu.Unlock()
}

// wait blocks until every expected dialer has been admitted (or the
// timeout passes) and returns the admitted connections keyed by their
// partition.
func (a *acceptPeers) wait(timeout time.Duration) (map[int]admitted, error) {
	select {
	case <-a.done:
	case <-time.After(timeout):
		a.mu.Lock()
		n := len(a.seen)
		a.mu.Unlock()
		return nil, fmt.Errorf("dist: node %d: mesh formation timed out (%d of %d dialers arrived)",
			a.local, n, a.parts-1-a.local)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]admitted, len(a.seen))
	for k, v := range a.seen {
		out[k] = v
	}
	return out, nil
}
