package proto

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/tag"
)

// testCatalog builds the small two-table join catalog the serve tests
// use: 60 items across 5 groups.
func testCatalog() *relation.Catalog {
	cat := relation.NewCatalog()
	items := relation.New("items", relation.MustSchema(
		relation.Col("ikey", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("val", relation.KindInt)))
	for i := 0; i < 60; i++ {
		items.MustAppend(relation.Int(int64(i)), relation.Str(fmt.Sprintf("g%d", i%5)), relation.Int(int64(i%7)))
	}
	cat.MustAdd(items)
	cat.SetPrimaryKey("items", "ikey")

	groups := relation.New("groups", relation.MustSchema(
		relation.Col("gname", relation.KindString),
		relation.Col("weight", relation.KindInt)))
	for i := 0; i < 5; i++ {
		groups.MustAppend(relation.Str(fmt.Sprintf("g%d", i)), relation.Int(int64(i+1)))
	}
	cat.MustAdd(groups)
	cat.SetPrimaryKey("groups", "gname")
	cat.AddForeignKey(relation.ForeignKey{Table: "items", Column: "grp", RefTable: "groups", RefColumn: "gname"})
	return cat
}

// startServer boots a serve.Server plus a binary listener on a random
// port and tears both down with the test.
func startServer(t *testing.T, opts serve.Options) (*serve.Server, *Server, string) {
	t.Helper()
	g, err := tag.Build(testCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	core := serve.New(g, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps := Serve(ln, core)
	t.Cleanup(func() { ps.Close() })
	return core, ps, ln.Addr().String()
}

// TestRoundTripMatchesDirectQuery: rows decoded off the wire are
// value-identical to the same queries executed directly on the serving
// core, and the second issue of a statement rides the fingerprint fast
// path (Prepared in the trailer).
func TestRoundTripMatchesDirectQuery(t *testing.T) {
	core, _, addr := startServer(t, serve.Options{Sessions: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := []string{
		"SELECT COUNT(*) FROM items",
		"SELECT grp, SUM(val) FROM items GROUP BY grp",
		"SELECT gname, COUNT(*) FROM items, groups WHERE grp = gname GROUP BY gname",
		"SELECT ikey, val FROM items WHERE ikey = 17",
	}
	for _, q := range queries {
		want, err := core.Query(q)
		if err != nil {
			t.Fatalf("%s: direct: %v", q, err)
		}
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: wire: %v", q, err)
		}
		if !reflect.DeepEqual(got.Rows.Schema, want.Rows.Schema) {
			t.Errorf("%s: schema mismatch: wire %v direct %v", q, got.Rows.Schema, want.Rows.Schema)
		}
		if !reflect.DeepEqual(got.Rows.Tuples, want.Rows.Tuples) {
			t.Errorf("%s: rows mismatch:\nwire   %v\ndirect %v", q, got.Rows.Tuples, want.Rows.Tuples)
		}
		if got.Fingerprint == "" {
			t.Errorf("%s: trailer carried no fingerprint", q)
		}
		if got.Epoch != want.Epoch {
			t.Errorf("%s: epoch = %d, want %d", q, got.Epoch, want.Epoch)
		}

		// Second issue: the client sends the fingerprint, the server skips
		// lexing, and the rows still match.
		again, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: fingerprint reissue: %v", q, err)
		}
		if !again.Prepared {
			t.Errorf("%s: reissue not marked prepared", q)
		}
		if !reflect.DeepEqual(again.Rows.Tuples, want.Rows.Tuples) {
			t.Errorf("%s: fingerprint-path rows diverge from direct execution", q)
		}
	}

	// The latency histogram attributed all wire queries to the binary
	// protocol.
	if n := core.Latency(serve.ProtoBinary).Count(); n != int64(2*len(queries)) {
		t.Errorf("binary histogram count = %d, want %d", n, 2*len(queries))
	}
}

// TestUnknownFingerprintFallsBackToSQL: a fingerprint the server never
// prepared gets the typed ErrorUnknownFP answer on a connection that
// stays usable, and the client's Query wrapper retransmits SQL
// transparently after eviction.
func TestUnknownFingerprintFallsBackToSQL(t *testing.T) {
	_, _, addr := startServer(t, serve.Options{Sessions: 1, PreparedLimit: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.roundTrip("deadbeef", true, 0); err == nil {
		t.Fatal("bogus fingerprint accepted")
	} else if pe, ok := err.(*Error); !ok || pe.Code != ErrorUnknownFP {
		t.Fatalf("bogus fingerprint error = %v, want code %s", err, ErrorUnknownFP)
	}

	// Prime two statements through a 1-entry cache: the first is evicted
	// by the second, so its cached fingerprint is now unknown server-side
	// and Query must fall back to SQL without surfacing an error.
	q1, q2 := "SELECT COUNT(*) FROM items", "SELECT COUNT(*) FROM groups"
	if _, err := c.Query(q1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(q2); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(q1) // cached fp was evicted by q2
	if err != nil {
		t.Fatalf("query after server-side eviction: %v", err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 60 {
		t.Errorf("COUNT(*) after fallback = %d, want 60", n)
	}
}

// TestDeadlineAndRetryFrames: with the pool's only session held, a
// deadlined query comes back as a typed deadline error and an
// undeadlined one as a RETRY frame carrying the admission hint —
// and the connection survives both to serve a normal query once the
// session frees.
func TestDeadlineAndRetryFrames(t *testing.T) {
	core, _, addr := startServer(t, serve.Options{Sessions: 1, AdmitWait: 30 * time.Millisecond})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pool := core.Generation().Pool()
	sess, err := pool.AcquireContext(context.Background(), 0) // hold the only session
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.QueryDeadline("SELECT COUNT(*) FROM items", 5*time.Millisecond); err == nil {
		t.Error("deadlined query on an exhausted pool succeeded")
	} else if pe, ok := err.(*Error); !ok || pe.Code != ErrorDeadline {
		t.Errorf("deadline error = %v, want code %s", err, ErrorDeadline)
	}

	if _, err := c.Query("SELECT COUNT(*) FROM items"); err == nil {
		t.Error("query on an exhausted pool succeeded")
	} else if re, ok := err.(*RetryError); !ok {
		t.Errorf("overload error = %v, want *RetryError", err)
	} else if re.After < time.Second {
		t.Errorf("retry hint = %v, want >= 1s", re.After)
	}

	pool.Release(sess)
	res, err := c.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatalf("query after pool release: %v", err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 60 {
		t.Errorf("COUNT(*) = %d, want 60", n)
	}

	st := core.Stats()
	if st.Rejected != 1 || st.Canceled != 1 {
		t.Errorf("rejected/canceled = %d/%d, want 1/1", st.Rejected, st.Canceled)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d, want 0", st.InFlight)
	}
}

// TestRetryHintAgreesAcrossProtocols: one refusal on each wire, with an
// admission bound that is not a whole number of seconds, carries the
// same rounded-up hint — HTTP's Retry-After header and the RETRY frame.
func TestRetryHintAgreesAcrossProtocols(t *testing.T) {
	core, _, addr := startServer(t, serve.Options{Sessions: 1, AdmitWait: 1500 * time.Millisecond})
	hs := httptest.NewServer(serve.Handler(core))
	defer hs.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pool := core.Generation().Pool()
	sess, err := pool.AcquireContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Release(sess)

	// Both refusals wait out the bound at the same time.
	header := make(chan string, 1)
	go func() {
		resp, err := hs.Client().Get(hs.URL + "/query?sql=SELECT%20COUNT(*)%20FROM%20items")
		if err != nil {
			header <- err.Error()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		header <- fmt.Sprintf("%d Retry-After %s", resp.StatusCode, resp.Header.Get("Retry-After"))
	}()
	_, err = c.Query("SELECT COUNT(*) FROM items")
	if re, ok := err.(*RetryError); !ok || re.After != 2*time.Second {
		t.Errorf("TAGP1 refusal = %v, want a RETRY frame after 2s", err)
	}
	if got := <-header; got != "429 Retry-After 2" {
		t.Errorf("HTTP refusal = %q, want \"429 Retry-After 2\"", got)
	}
}

// TestQueryDeadlineEncoding: a QUERY frame's deadline survives the
// wire. A positive deadline under 1ms stays a deadline, a non-positive
// one means none, and a millisecond count that overflows a
// time.Duration is a bad frame rather than a wrapped deadline.
func TestQueryDeadlineEncoding(t *testing.T) {
	for _, c := range []struct{ in, want time.Duration }{
		{0, 0},
		{-time.Second, 0},
		{time.Microsecond, time.Millisecond},
		{1500 * time.Microsecond, time.Millisecond},
		{time.Hour, time.Hour},
		{math.MaxInt64, math.MaxInt64 / time.Millisecond * time.Millisecond},
	} {
		b := appendQuery(nil, "SELECT 1", false, c.in)
		_, _, got, err := decodeQuery(codec.NewDecoder(b[1:]))
		if err != nil || got != c.want {
			t.Errorf("deadline %v decodes to %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, ms := range []uint64{18446744073709, 18446744073710, math.MaxUint64} {
		b := []byte{0}
		b = codec.AppendString(b, "SELECT 1")
		b = binary.AppendUvarint(b, ms)
		b = binary.AppendUvarint(b, 0)
		if _, _, d, err := decodeQuery(codec.NewDecoder(b)); err == nil {
			t.Errorf("deadline of %dms decoded to %v, want a bad frame", ms, d)
		}
	}
}

// TestHostileFramesNeverWedgeTheServer drives the raw socket with the
// fuzz barrage's shapes — wrong magic, undecodable payloads, oversized
// length prefixes, CRC damage, truncation mid-frame — and asserts the
// server answers with a typed error or just closes, then keeps serving
// well-formed clients.
func TestHostileFramesNeverWedgeTheServer(t *testing.T) {
	_, _, addr := startServer(t, serve.Options{Sessions: 1})

	frame := func(payload []byte) []byte {
		out := make([]byte, 8, 8+len(payload))
		binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		return append(out, payload...)
	}
	goodHello := frame(appendHello(nil))

	cases := []struct {
		name string
		raw  []byte
	}{
		{"wrong magic", frame(appendHello(nil)[:3])},
		{"http speaker", []byte("GET /query HTTP/1.1\r\nHost: x\r\n\r\n")},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}},
		{"zero length", []byte{0, 0, 0, 0, 0, 0, 0, 0}},
		{"crc flip", func() []byte { f := frame(appendHello(nil)); f[4] ^= 0x40; return f }()},
		{"truncated mid-frame", frame(appendHello(nil))[:10]},
		{"query before hello", frame(appendQuery(nil, "SELECT 1", false, 0))},
		{"garbage after hello", append(append([]byte{}, goodHello...), frame([]byte{0x7f, 1, 2, 3})...)},
		{"truncated query", append(append([]byte{}, goodHello...), frame([]byte{kindQuery, 0})...)},
	}
	for _, tc := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(tc.raw); err != nil && !errors.Is(err, net.ErrClosed) {
			// A server that already hung up mid-write is a valid refusal.
			conn.Close()
			continue
		}
		// Half-close the write side: a truncation is a peer that stopped
		// sending, and the server must then see it rather than wait for
		// bytes that never come.
		conn.(*net.TCPConn).CloseWrite()
		// The server must settle the connection: either a frame (typed
		// error) or EOF, never a hang past the read deadline.
		if _, err := io.ReadAll(conn); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Errorf("%s: connection hung instead of closing", tc.name)
			}
		}
		conn.Close()
	}

	// The server survived the barrage and still answers a honest client.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after barrage: %v", err)
	}
	defer c.Close()
	res, err := c.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatalf("query after barrage: %v", err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 60 {
		t.Errorf("COUNT(*) = %d, want 60", n)
	}
}

// TestServerCloseUnblocksClients: Close tears down live connections so
// a blocked reader gets EOF, not a hang.
func TestServerCloseUnblocksClients(t *testing.T) {
	_, ps, addr := startServer(t, serve.Options{Sessions: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := codec.ReadFrame(c.br)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the reader block
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("read after Close returned a frame, want an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client read still blocked after server Close")
	}
}
