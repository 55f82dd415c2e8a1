// Package proto is the binary query protocol: persistent TCP
// connections carrying codec frames (the WAL/checkpoint framing —
// length + CRC-32C header) whose payloads are kind-tagged messages
// encoded with the relational layer's deterministic binary value
// codecs. Relative to the HTTP JSON surface it removes per-request
// connection setup, JSON encode/decode on both sides, and (via the
// fingerprint fast path) server-side SQL lexing — the per-query costs
// that dominate point-query serving. Both surfaces execute through the
// same serve.Server core, so admission control, deadlines and stats
// behave identically; only the wire changes.
//
// Conversation shape: the client opens with a HELLO frame carrying the
// protocol magic and the server echoes it; each QUERY frame then gets
// exactly one RESULT, ERROR, or RETRY frame in return. A QUERY carries
// either SQL text or a statement fingerprint previously returned in a
// RESULT trailer — the fingerprint path skips lexing entirely, and an
// evicted fingerprint surfaces as ErrorUnknownFP so the client can
// retransmit the SQL. Framing damage (bad CRC, oversized length,
// truncation) is never answered: the connection just closes, because
// after corruption no further frame boundary can be trusted.
package proto

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/relation"
	"repro/internal/serve"
)

// magic opens every connection; a mismatch (wrong protocol, HTTP
// accidentally pointed here) is refused with a typed error frame
// before anything else is read.
const magic = "TAGP1"

// Frame kinds (first payload byte of every frame).
const (
	kindHello  byte = 1 // handshake, both directions: magic string
	kindQuery  byte = 2 // client→server: flags, statement, deadline
	kindResult byte = 3 // server→client: schema, columnar cells, trailer
	kindError  byte = 4 // server→client: code + message
	kindRetry  byte = 5 // server→client: overloaded, retry-after hint
)

// Query frame flags.
const flagFingerprint byte = 1 << 0 // statement is a fingerprint, not SQL

// Error codes carried by ERROR frames.
const (
	ErrorBadMagic  = "bad_magic"   // handshake carried the wrong magic
	ErrorBadFrame  = "bad_request" // well-framed but undecodable or unknown-kind payload
	ErrorUnknownFP = "unknown_fingerprint"
	ErrorDeadline  = "deadline" // query aborted by its deadline
	ErrorCanceled  = "canceled" // query aborted by client cancellation
	ErrorExec      = "exec"     // parse, analyze, or execution failure
)

// Result is one decoded RESULT frame: the rows plus the execution
// report the trailer carries, mirroring serve.Result.
type Result struct {
	Rows        *relation.Relation
	Epoch       uint64
	Prepared    bool   // served via the prepared-statement cache
	Fingerprint string // normalized statement fingerprint (cache key for the fast path)
	Elapsed     time.Duration
	Messages    int64 // BSP messages this query sent (the paper's M)
	Supersteps  int
	Agg         string // aggregation class the planner chose
	Acyclic     bool
}

// Error is a typed refusal from the server. The connection stays
// usable after every code except ErrorBadMagic and ErrorBadFrame.
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string { return fmt.Sprintf("proto: %s: %s", e.Code, e.Message) }

// RetryError is the admission-control refusal (the binary analogue of
// HTTP 429 + Retry-After): the server is overloaded, the query never
// started, and retrying after the hint is always safe.
type RetryError struct {
	After   time.Duration
	Message string
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("proto: overloaded, retry after %v: %s", e.After, e.Message)
}

// appendHello encodes a HELLO frame payload.
func appendHello(b []byte) []byte {
	b = append(b, kindHello)
	return codec.AppendString(b, magic)
}

// appendQuery encodes a QUERY frame payload: flags, the statement (SQL
// text, or a fingerprint when flagFingerprint is set), the deadline in
// milliseconds (0 = none; a positive deadline under 1ms is sent as 1ms
// so it stays a deadline), and a reserved parameter count (must be 0;
// room for bound parameters without a format break).
func appendQuery(b []byte, stmt string, fingerprint bool, deadline time.Duration) []byte {
	b = append(b, kindQuery)
	var flags byte
	if fingerprint {
		flags |= flagFingerprint
	}
	b = append(b, flags)
	b = codec.AppendString(b, stmt)
	var ms int64
	if deadline > 0 {
		ms = max(deadline.Milliseconds(), 1)
	}
	b = binary.AppendUvarint(b, uint64(ms))
	b = binary.AppendUvarint(b, 0)
	return b
}

// decodeQuery decodes a QUERY payload after its kind byte.
func decodeQuery(d *codec.Decoder) (stmt string, fingerprint bool, deadline time.Duration, err error) {
	flags, err := d.Byte()
	if err != nil {
		return "", false, 0, err
	}
	if stmt, err = d.Str(); err != nil {
		return "", false, 0, err
	}
	ms, err := d.Uvarint()
	if err != nil {
		return "", false, 0, err
	}
	nparams, err := d.Uvarint()
	if err != nil {
		return "", false, 0, err
	}
	if nparams != 0 {
		return "", false, 0, fmt.Errorf("proto: %d bound parameters unsupported", nparams)
	}
	if ms > math.MaxInt64/uint64(time.Millisecond) {
		return "", false, 0, fmt.Errorf("proto: deadline %dms overflows", ms)
	}
	if err = d.Finish(); err != nil {
		return "", false, 0, err
	}
	return stmt, flags&flagFingerprint != 0, time.Duration(ms) * time.Millisecond, nil
}

// appendResult encodes a RESULT frame payload: the schema, a row
// count, the cells column-major (all of column 0, then column 1, …),
// and the execution-report trailer. Column-major keeps each column's
// kind bytes and varint shapes adjacent — the same reasoning as a
// columnar file layout, and it lets a future column-typed encoding
// drop the per-cell kind byte without reordering.
func appendResult(b []byte, res *serve.Result, fp string) ([]byte, error) {
	b = append(b, kindResult)
	b = res.Rows.Schema.AppendBinary(b)
	rows := res.Rows.Tuples
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for j := range res.Rows.Schema.Columns {
		for _, row := range rows {
			var err error
			if b, err = relation.AppendValue(b, row[j]); err != nil {
				return nil, err
			}
		}
	}
	b = binary.AppendUvarint(b, res.Epoch)
	if res.Prepared {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = codec.AppendString(b, fp)
	b = binary.AppendUvarint(b, uint64(res.Elapsed.Nanoseconds()))
	b = binary.AppendUvarint(b, uint64(res.Cost.Messages))
	b = binary.AppendUvarint(b, uint64(res.Cost.Supersteps))
	b = binary.AppendUvarint(b, uint64(res.Info.Agg))
	if res.Info.Acyclic {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b, nil
}

// decodeResult decodes a RESULT payload after its kind byte.
func decodeResult(d *codec.Decoder) (*Result, error) {
	schema, err := relation.DecodeSchema(d)
	if err != nil {
		return nil, err
	}
	nrows, err := d.Length()
	if err != nil {
		return nil, err
	}
	ncols := len(schema.Columns)
	// Every cell costs at least one encoded byte, so a row count the
	// remaining payload cannot back is corruption — checked before any
	// allocation proportional to it.
	if ncols > 0 && nrows > d.Remaining()/ncols {
		return nil, codec.ErrCorrupt
	}
	cells := make([]relation.Value, nrows*ncols)
	for j := 0; j < ncols; j++ {
		for i := 0; i < nrows; i++ {
			if cells[i*ncols+j], err = relation.DecodeValue(d); err != nil {
				return nil, err
			}
		}
	}
	rel := relation.New("result", schema)
	rel.Tuples = make([]relation.Tuple, nrows)
	for i := range rel.Tuples {
		rel.Tuples[i] = relation.Tuple(cells[i*ncols : (i+1)*ncols : (i+1)*ncols])
	}

	out := &Result{Rows: rel}
	if out.Epoch, err = d.Uvarint(); err != nil {
		return nil, err
	}
	prep, err := d.Byte()
	if err != nil {
		return nil, err
	}
	out.Prepared = prep != 0
	if out.Fingerprint, err = d.Str(); err != nil {
		return nil, err
	}
	ns, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Duration(ns)
	msgs, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	out.Messages = int64(msgs)
	steps, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	out.Supersteps = int(steps)
	agg, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	out.Agg = aggName(agg)
	acyclic, err := d.Byte()
	if err != nil {
		return nil, err
	}
	out.Acyclic = acyclic != 0
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// aggName renders a core.AggClass ordinal without importing core (the
// ordinals are part of the wire format now; decode must not drift with
// the enum's String method).
func aggName(v uint64) string {
	switch v {
	case 0:
		return "none"
	case 1:
		return "local"
	case 2:
		return "global"
	case 3:
		return "scalar"
	default:
		return fmt.Sprintf("agg(%d)", v)
	}
}

// appendError encodes an ERROR frame payload.
func appendError(b []byte, code, msg string) []byte {
	b = append(b, kindError)
	b = codec.AppendString(b, code)
	return codec.AppendString(b, msg)
}

// appendRetry encodes a RETRY frame payload.
func appendRetry(b []byte, after time.Duration, msg string) []byte {
	b = append(b, kindRetry)
	b = binary.AppendUvarint(b, uint64(after.Milliseconds()))
	return codec.AppendString(b, msg)
}
