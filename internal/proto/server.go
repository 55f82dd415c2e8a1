package proto

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/serve"
)

// bufSize sizes the pooled per-connection read/write buffers. 64KB
// swallows a typical point-query exchange in one syscall each way
// while staying cheap enough to pool across thousands of
// connection turnovers.
const bufSize = 64 << 10

// Buffered readers and writers are pooled across connections: the
// protocol's whole point is cheap per-query serving, and paying two
// 64KB allocations per accepted connection would hand a chunk of that
// back under connection churn.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bufSize) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, bufSize) }}
)

// Server serves the binary query protocol on one listener, executing
// every query through the shared serve.Server core (same admission
// control, deadlines, and stats as HTTP; latency lands in the
// ProtoBinary histogram).
type Server struct {
	core *serve.Server
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts accepting binary-protocol connections on ln, one
// goroutine per connection, and returns immediately. Close stops the
// listener and tears down live connections.
func Serve(ln net.Listener, core *serve.Server) *Server {
	s := &Server{core: core, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener, closes every live connection (in-flight
// queries abort when their response write fails), and waits for the
// connection goroutines to exit. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (or broken) — either way, stop accepting
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// handle owns one connection for its lifetime: handshake, then a
// strict request/response loop. Framing damage — bad CRC, oversized
// length prefix, truncation mid-frame — closes the connection without
// a reply (after corruption no frame boundary can be trusted), while
// well-framed-but-invalid payloads get a typed ERROR frame first.
// Either way the serving process is untouched: a hostile peer can only
// ever lose its own connection.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer readerPool.Put(br)
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(conn)
	defer writerPool.Put(bw)
	var scratch []byte // per-connection encode buffer, reused across responses

	// Handshake: exactly one HELLO with the right magic, echoed back.
	payload, _, err := codec.ReadFrame(br)
	if err != nil {
		return
	}
	d := codec.NewDecoder(payload)
	kind, err := d.Byte()
	if err != nil || kind != kindHello {
		s.refuse(bw, scratch, ErrorBadMagic, "expected HELLO")
		return
	}
	m, err := d.Str()
	if err != nil || m != magic || d.Finish() != nil {
		s.refuse(bw, scratch, ErrorBadMagic, "wrong protocol magic")
		return
	}
	scratch = appendHello(scratch[:0])
	if writeFrame(bw, scratch) != nil {
		return
	}

	for {
		payload, _, err := codec.ReadFrame(br)
		if err != nil {
			return // clean EOF or framing damage — close either way
		}
		d := codec.NewDecoder(payload)
		kind, err := d.Byte()
		if err != nil || kind != kindQuery {
			s.refuse(bw, scratch, ErrorBadFrame, "expected QUERY")
			return
		}
		stmt, fingerprint, deadline, err := decodeQuery(d)
		if err != nil {
			s.refuse(bw, scratch, ErrorBadFrame, "undecodable QUERY frame")
			return
		}
		if scratch, err = s.answer(scratch[:0], stmt, fingerprint, deadline); err != nil {
			return // encode bug; nothing coherent to send
		}
		if writeFrame(bw, scratch) != nil {
			return
		}
	}
}

// answer executes one request through the shared serving core and
// encodes the response frame into buf. Execution errors become typed
// ERROR/RETRY frames — only an encoding failure (a bug, not an input)
// returns a non-nil error.
func (s *Server) answer(buf []byte, stmt string, fingerprint bool, deadline time.Duration) ([]byte, error) {
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	var (
		res *serve.Result
		fp  string
		err error
	)
	if fingerprint {
		var ok bool
		fp = stmt
		res, ok, err = s.core.QueryPrepared(ctx, stmt, serve.ProtoBinary)
		if !ok {
			// Evicted (or never prepared here): the client falls back to
			// SQL, which re-primes the cache. The connection stays up.
			return appendError(buf, ErrorUnknownFP, "fingerprint not prepared"), nil
		}
	} else {
		res, fp, err = s.core.QueryOn(ctx, stmt, serve.ProtoBinary)
	}
	switch {
	case err == nil:
		return appendResult(buf, res, fp)
	case errors.Is(err, serve.ErrOverloaded):
		return appendRetry(buf, s.core.RetryAfter(), err.Error()), nil
	case errors.Is(err, context.DeadlineExceeded):
		return appendError(buf, ErrorDeadline, err.Error()), nil
	case errors.Is(err, context.Canceled):
		return appendError(buf, ErrorCanceled, err.Error()), nil
	case fp == "" && !fingerprint:
		// QueryOn returns an empty fingerprint only when the statement
		// never parsed — the client sent bad SQL, not a failing query.
		return appendError(buf, ErrorBadFrame, err.Error()), nil
	default:
		return appendError(buf, ErrorExec, err.Error()), nil
	}
}

// refuse writes a typed ERROR frame; the caller closes the connection.
// A failed write is ignored — the connection is going away regardless.
func (s *Server) refuse(bw *bufio.Writer, scratch []byte, code, msg string) {
	writeFrame(bw, appendError(scratch[:0], code, msg))
}

// writeFrame frames payload and flushes it — every response reaches
// the wire before the next request is read, keeping the protocol
// strictly request/response.
func writeFrame(bw *bufio.Writer, payload []byte) error {
	if err := codec.WriteFrame(bw, payload); err != nil {
		return err
	}
	return bw.Flush()
}
