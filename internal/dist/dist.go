// Package dist runs the TAG-join engine as a real multi-process
// cluster: coordinator and worker roles over persistent TCP, speaking
// codec-framed messages, with each node owning one hash-partition of
// the graph and executing the same SPMD query orchestration.
//
// The design splits traffic onto two planes:
//
//   - The control star: every worker holds one TCP connection to the
//     coordinator. It carries the topology handshake (JOIN → WELCOME →
//     TOPOLOGY → READY → CLUSTERUP), query dispatch, and the run
//     collectives — StartRun rendezvous, per-superstep barrier
//     reduce-broadcast (bsp.ReduceBarrier, the same reduction the
//     in-memory test transport uses), and the end-of-run emit
//     allgather.
//
//   - The data mesh: one TCP connection per unordered node pair (the
//     higher-numbered node dials), carrying exactly one sealed records
//     frame per ordered pair per superstep — the frames internal/bsp's
//     exchange seam builds. Because each mesh connection joins a fixed
//     pair, source and destination are implicit and the wire carries
//     the frame verbatim: codec header + payload, nothing else. That
//     is precisely what the loopback simulation prices, so measured
//     data-plane bytes equal the simulated Stats.NetworkBytes exactly
//     — by construction, not calibration.
//
// Every node (the coordinator included — it owns partition 0) builds
// the identical catalog and TAG graph from the shared (db, scale,
// seed) configuration and runs the full core.Session orchestration for
// every query. All cross-phase state flows through the engine's
// barrier and emit collectives, so each node independently computes
// the byte-identical answer; the coordinator returns its copy to the
// client.
//
// Failure model: fail-stop, no rejoin. Any node death or transport
// error degrades the whole topology — the coordinator closes every
// connection, in-flight queries fail with the transport error, and
// every later query is refused with ErrDegraded (the serving layer
// maps it to 503). Remaining worker processes stay alive (their health
// endpoints keep answering) but leave the query plane. Restarting the
// topology is the recovery path.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/tag"
)

// ErrDegraded is the permanent refusal of a topology that lost a node:
// a worker died or a connection failed, the coordinator tore the
// cluster down, and every query since is refused without touching the
// engine. There is no rejoin; restart the topology to recover.
var ErrDegraded = errors.New("dist: cluster degraded, a node failed")

// GraphBuilder constructs the node's share of the world: the catalog
// and frozen TAG graph for the agreed (db, scale, seed). Every node
// must build the identical graph — the generators are deterministic,
// so agreeing on the triple is agreeing on the data. In-process tests
// (and the coordinator, which usually already built the graph for
// serving) return a pre-built shared graph.
type GraphBuilder func(db string, scale float64, seed int64) (*tag.Graph, error)

// Config fixes one topology.
type Config struct {
	// Parts is the total partition count — coordinator plus joined
	// workers. Parts=1 is a single-node "cluster": no sockets carry
	// data, but queries run through the same distributed code path.
	Parts int
	// DB, Scale, Seed name the dataset every node generates and
	// encodes. The coordinator sends them to joining workers in
	// WELCOME.
	DB    string
	Scale float64
	Seed  int64
	// Workers is the BSP worker count of each node's local engine
	// (defaults to 1). Nodes may disagree — worker counts change only
	// local parallelism, never the answer or the accounting.
	Workers int
	// FormTimeout bounds cluster formation: how long the coordinator
	// waits for all workers to join, mesh and report ready. Defaults
	// to 2 minutes.
	FormTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Parts <= 0 {
		c.Parts = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.FormTimeout <= 0 {
		c.FormTimeout = 2 * time.Minute
	}
	return c
}

// WireStats is one node's measured transport traffic, codec frame
// headers included. Data-plane counters cover the mesh (the sealed
// per-superstep records frames — the traffic Stats.NetworkBytes and
// Stats.NetworkMessages model); control counters cover the coordinator
// star (handshake, barriers, emit allgather, dispatch), which the
// paper's network-cost model does not price. Summing DataBytesOut
// (resp. DataRecordsOut) across all nodes of a topology yields
// exactly the run's Stats.NetworkBytes (resp. NetworkMessages).
type WireStats struct {
	DataBytesOut    int64
	DataBytesIn     int64
	DataFramesOut   int64
	DataFramesIn    int64
	DataRecordsOut  int64
	ControlBytesOut int64
	ControlBytesIn  int64
}

// wireCounters is the atomic backing store of a node's WireStats.
type wireCounters struct {
	dataBytesOut    atomic.Int64
	dataBytesIn     atomic.Int64
	dataFramesOut   atomic.Int64
	dataFramesIn    atomic.Int64
	dataRecordsOut  atomic.Int64
	controlBytesOut atomic.Int64
	controlBytesIn  atomic.Int64
}

func (w *wireCounters) snapshot() WireStats {
	return WireStats{
		DataBytesOut:    w.dataBytesOut.Load(),
		DataBytesIn:     w.dataBytesIn.Load(),
		DataFramesOut:   w.dataFramesOut.Load(),
		DataFramesIn:    w.dataFramesIn.Load(),
		DataRecordsOut:  w.dataRecordsOut.Load(),
		ControlBytesOut: w.controlBytesOut.Load(),
		ControlBytesIn:  w.controlBytesIn.Load(),
	}
}

// Control-plane message kinds: the first payload byte of every frame
// on a control or mesh connection. Any other leading byte — or any
// frame failing the codec CRC — is a protocol violation: handshake
// connections are refused and closed, admitted connections degrade the
// topology (a peer that desyncs cannot be trusted to stay in
// lockstep).
const (
	ckJoin      = 0x01 // worker → coordinator: magic, data-mesh addr
	ckWelcome   = 0x02 // coordinator → worker: part, parts, db/scale/seed, token
	ckTopology  = 0x03 // coordinator → worker: every node's data-mesh addr
	ckReady     = 0x04 // worker → coordinator: mesh complete
	ckClusterUp = 0x05 // coordinator → worker: all nodes ready, serve queries
	ckPeer      = 0x06 // mesh dial handshake: token, dialer's part
	ckQuery     = 0x10 // coordinator → worker: qid, SQL text
	ckStartRun  = 0x11 // both ways: StartRun rendezvous
	ckBarrier   = 0x12 // worker → coordinator: local frame; back: global
	ckFinishRun = 0x13 // worker → coordinator: emit blob; back: all blobs
	ckQueryDone = 0x14 // worker → coordinator: qid, error string
	ckShutdown  = 0x1e // coordinator → worker: clean stop
	ckRefuse    = 0x1f // coordinator → joiner: refusal, reason string
)

// joinMagic leads every JOIN frame; anything else on a fresh control
// connection is refused.
const joinMagic = "tagdist1"

// handshakeTimeout bounds each synchronous read of the join/mesh
// handshakes, so a hostile connection that sends half a frame cannot
// pin an accept loop.
const handshakeTimeout = 10 * time.Second

// appendJoin serializes a JOIN frame after the leading kind byte: the
// magic, then the joiner's data-mesh address.
func appendJoin(dst []byte, dataAddr string) []byte {
	return codec.AppendString(codec.AppendString(dst, joinMagic), dataAddr)
}

// decodeJoin reads a whole JOIN payload and returns its data-mesh
// address.
func decodeJoin(payload []byte) (string, error) {
	d := codec.NewDecoder(payload)
	magic, err := d.Str()
	if err != nil {
		return "", err
	}
	if magic != joinMagic {
		return "", fmt.Errorf("dist: join magic %q", magic)
	}
	addr, err := d.Str()
	if err == nil {
		err = d.Finish()
	}
	return addr, err
}

// welcome is the WELCOME frame: the joiner's partition, the topology
// size, the dataset triple every node builds, and the mesh token.
type welcome struct {
	part, parts int
	db          string
	scale       float64
	seed        int64
	token       string
}

func appendWelcome(dst []byte, w welcome) []byte {
	dst = binary.AppendUvarint(dst, uint64(w.part))
	dst = binary.AppendUvarint(dst, uint64(w.parts))
	dst = codec.AppendString(dst, w.db)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.scale))
	dst = binary.AppendVarint(dst, w.seed)
	return codec.AppendString(dst, w.token)
}

// decodeWelcome reads a whole WELCOME payload; the assigned partition
// must be a worker's, 1 ≤ part < parts.
func decodeWelcome(payload []byte) (welcome, error) {
	var w welcome
	d := codec.NewDecoder(payload)
	part, err := d.Uvarint()
	if err != nil {
		return w, err
	}
	parts, err := d.Uvarint()
	if err != nil {
		return w, err
	}
	if part < 1 || part >= parts || parts > math.MaxInt32 {
		return w, fmt.Errorf("dist: welcome assigned partition %d of %d", part, parts)
	}
	w.part, w.parts = int(part), int(parts)
	if w.db, err = d.Str(); err != nil {
		return w, err
	}
	scale, err := d.Take(8)
	if err != nil {
		return w, err
	}
	w.scale = math.Float64frombits(binary.LittleEndian.Uint64(scale))
	if w.seed, err = d.Varint(); err != nil {
		return w, err
	}
	if w.token, err = d.Str(); err != nil {
		return w, err
	}
	return w, d.Finish()
}

// appendTopology serializes a TOPOLOGY frame after the leading kind
// byte: every node's data-mesh address, in partition order.
func appendTopology(dst []byte, addrs []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = codec.AppendString(dst, a)
	}
	return dst
}

// decodeTopology reads a whole TOPOLOGY payload.
func decodeTopology(payload []byte) ([]string, error) {
	d := codec.NewDecoder(payload)
	n, err := d.Length()
	if err != nil {
		return nil, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		if addrs[i], err = d.Str(); err != nil {
			return nil, err
		}
	}
	return addrs, d.Finish()
}

// queryFrame is the body of a QUERY frame (query id, SQL text) and of a
// QUERYDONE frame (query id, error string): the two share one layout.
type queryFrame struct {
	id   uint64
	text string
}

// appendQueryFrame serializes a QUERY or QUERYDONE frame after the
// leading kind byte.
func appendQueryFrame(dst []byte, q queryFrame) []byte {
	return codec.AppendString(binary.AppendUvarint(dst, q.id), q.text)
}

// decodeQueryFrame reads a whole QUERY or QUERYDONE payload.
func decodeQueryFrame(payload []byte) (queryFrame, error) {
	var q queryFrame
	var err error
	d := codec.NewDecoder(payload)
	if q.id, err = d.Uvarint(); err != nil {
		return q, err
	}
	if q.text, err = d.Str(); err != nil {
		return q, err
	}
	return q, d.Finish()
}

// appendFinishRelease serializes a FINISHRUN release after the leading
// kind byte: the blob count, then each partition's emit blob,
// length-prefixed, in partition order.
func appendFinishRelease(dst []byte, blobs [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blobs)))
	for _, b := range blobs {
		dst = append(binary.AppendUvarint(dst, uint64(len(b))), b...)
	}
	return dst
}

// decodeFinishRelease reads a whole FINISHRUN release, which must carry
// one blob per partition of parts. The blobs alias payload.
func decodeFinishRelease(payload []byte, parts int) ([][]byte, error) {
	d := codec.NewDecoder(payload)
	n, err := d.Length()
	if err != nil {
		return nil, err
	}
	if n != parts {
		return nil, fmt.Errorf("dist: finish-run release carries %d blobs, expected %d", n, parts)
	}
	blobs := make([][]byte, n)
	for i := range blobs {
		ln, err := d.Length()
		if err != nil {
			return nil, err
		}
		if blobs[i], err = d.Take(ln); err != nil {
			return nil, err
		}
	}
	return blobs, d.Finish()
}

// peerHello is the PEER frame a node dials a lower-numbered one with:
// the cluster token and the dialer's partition. An unauthenticated data
// port reads it.
type peerHello struct {
	token string
	from  int
}

// appendPeerHello serializes a PEER frame after the leading kind byte.
func appendPeerHello(dst []byte, p peerHello) []byte {
	return binary.AppendUvarint(codec.AppendString(dst, p.token), uint64(p.from))
}

// decodePeerHello reads a whole PEER payload.
func decodePeerHello(payload []byte) (peerHello, error) {
	var p peerHello
	var err error
	d := codec.NewDecoder(payload)
	if p.token, err = d.Str(); err != nil {
		return p, err
	}
	from, err := d.Uvarint()
	if err != nil {
		return p, err
	}
	if from > math.MaxInt32 {
		return p, fmt.Errorf("dist: peer partition %d", from)
	}
	p.from = int(from)
	return p, d.Finish()
}

// appendBarrierFrame serializes a bsp.BarrierFrame after the leading
// kind byte: step, active count, abort flag, failure and stats.
func appendBarrierFrame(dst []byte, bf bsp.BarrierFrame) []byte {
	dst = binary.AppendVarint(dst, int64(bf.Step))
	dst = binary.AppendVarint(dst, bf.Active)
	if bf.Abort {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = codec.AppendString(dst, bf.Fail)
	return appendStats(dst, bf.Stats)
}

func decodeBarrierFrame(d *codec.Decoder) (bsp.BarrierFrame, error) {
	var bf bsp.BarrierFrame
	step, err := d.Varint()
	if err != nil {
		return bf, err
	}
	if step < math.MinInt32 || step > math.MaxInt32 {
		return bf, fmt.Errorf("dist: barrier step %d out of range", step)
	}
	bf.Step = int(step)
	if bf.Active, err = d.Varint(); err != nil {
		return bf, err
	}
	ab, err := d.Byte()
	if err != nil {
		return bf, err
	}
	bf.Abort = ab != 0
	if bf.Fail, err = d.Str(); err != nil {
		return bf, err
	}
	bf.Stats, err = decodeStats(d)
	return bf, err
}

// appendStats writes every bsp.Stats counter, in Counters order.
func appendStats(dst []byte, st bsp.Stats) []byte {
	for _, c := range st.Counters() {
		dst = binary.AppendVarint(dst, *c)
	}
	return dst
}

func decodeStats(d *codec.Decoder) (bsp.Stats, error) {
	var st bsp.Stats
	for _, c := range st.Counters() {
		v, err := d.Varint()
		if err != nil {
			return st, err
		}
		*c = v
	}
	return st, nil
}
