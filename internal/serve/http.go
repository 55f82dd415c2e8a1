package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/relation"
)

// QueryRequest is the /query request body (POST) — GET requests pass
// the same fields as the "sql" and "deadline_ms" URL parameters
// instead. DeadlineMS, when positive, bounds the query's execution:
// past it the query aborts at the next superstep barrier and the
// request fails with 408.
type QueryRequest struct {
	SQL        string  `json:"sql"`
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// QueryResponse is the /query response body.
//
// Number encoding: INT cells are emitted as JSON numbers while they fit
// the 2^53 range JSON clients can represent exactly; cells beyond
// ±2^53 are emitted as decimal strings instead, because a JavaScript-
// style client would silently round them. Clients that expect huge
// integers should accept both forms. FLOAT cells JSON has no number
// for are the strings "NaN", "+Inf" and "-Inf".
type QueryResponse struct {
	Columns  []string `json:"columns"`
	Rows     [][]any  `json:"rows"`
	RowCount int      `json:"row_count"`
	Agg      string   `json:"agg_class"`
	Acyclic  bool     `json:"acyclic"`
	Prepared bool     `json:"prepared"`
	Epoch    uint64   `json:"epoch"`
	Millis   float64  `json:"elapsed_ms"`
	Messages int64    `json:"bsp_messages"`
}

// WriteRequest is the /write request body: rows to insert into one
// table and/or deletes (by tuple-vertex id, which must name vertices
// that already exist), published atomically as a single new graph
// generation — a failed request changes nothing. Insert cells follow the
// table schema: numbers for INT/FLOAT columns (INT also accepts decimal
// strings, the form /query serves for cells beyond ±2^53, and FLOAT
// "NaN", "+Inf" and "-Inf"), strings for STRING columns, "YYYY-MM-DD"
// strings (or day numbers of those dates) for DATE columns, booleans
// for BOOL columns, null for NULL.
type WriteRequest struct {
	Table  string  `json:"table,omitempty"`
	Insert [][]any `json:"insert,omitempty"`
	Delete []int64 `json:"delete,omitempty"`
}

// WriteResponse is the /write response body. Inserted holds the
// tuple-vertex ids assigned to the new rows, usable in later deletes.
type WriteResponse struct {
	Epoch    uint64  `json:"epoch"`
	Inserted []int64 `json:"inserted,omitempty"`
	Deleted  int     `json:"deleted"`
	Millis   float64 `json:"elapsed_ms"`
}

// SubscribeRequest is the POST /subscribe request body: the query to
// pin. The server answers it once, keeps the answer current across
// every later write (incrementally when the query is eligible), and
// returns a fingerprint handle for polling and unpinning.
type SubscribeRequest struct {
	SQL string `json:"sql"`
}

// SubscribeResponse is the /subscribe response body (POST and GET).
// Incremental reports whether the pinned query is maintained by delta
// folding; Reason names the disqualifier otherwise. Rows follow the
// /query cell encoding and are canonically sorted, so two identical
// answers render identically.
type SubscribeResponse struct {
	FP          string   `json:"fp"`
	Incremental bool     `json:"incremental"`
	Reason      string   `json:"reason,omitempty"`
	Epoch       uint64   `json:"epoch"`
	Pins        int      `json:"pins,omitempty"`
	Columns     []string `json:"columns"`
	Rows        [][]any  `json:"rows"`
	RowCount    int      `json:"row_count"`
}

// UnsubscribeResponse is the DELETE /subscribe response body.
type UnsubscribeResponse struct {
	FP   string `json:"fp"`
	Pins int    `json:"pins"` // pins remaining; 0 means the subscription is gone
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP API of a Server:
//
//	POST /query  {"sql": "..."}    → QueryResponse
//	GET  /query?sql=...            → QueryResponse
//	POST /write  WriteRequest      → WriteResponse (serve-while-write)
//	POST   /subscribe {"sql": "..."}        → SubscribeResponse (pin a query)
//	GET    /subscribe?fp=...&after=&wait_ms= → SubscribeResponse (long-poll)
//	DELETE /subscribe?fp=...                → UnsubscribeResponse
//	GET  /stats                    → {"<statRows key>": value, ...}
//	GET  /healthz                  → 200 "ok"
func Handler(s *Server) http.Handler { return handler(s, false) }

// ReadOnlyHandler is Handler without the /write endpoint (it answers
// 403), for deployments that ingest through a separate process.
func ReadOnlyHandler(s *Server) http.Handler { return handler(s, true) }

func handler(s *Server, readOnly bool) http.Handler {
	mux := http.NewServeMux()
	maint := s.Maintainer()
	mux.HandleFunc("/write", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethods(w, r, http.MethodPost) {
			return
		}
		if readOnly {
			writeJSON(w, http.StatusForbidden, errorResponse{Error: "server is read-only"})
			return
		}
		var req WriteRequest
		if !readJSON(w, r, 16<<20, &req) {
			return
		}
		op, err := decodeWrite(s, req)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
			return
		}
		res, err := maint.Apply(op)
		if err != nil {
			if errors.Is(err, ErrOverloaded) {
				writeRetry(w, s, err)
				return
			}
			writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
			return
		}
		out := WriteResponse{Epoch: res.Epoch, Deleted: res.Deleted, Millis: ms(res.Elapsed)}
		for _, id := range res.Inserted {
			out.Inserted = append(out.Inserted, int64(id))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		// Strictly GET or POST: treating, say, a DELETE as a GET would
		// mask client bugs behind a successful response.
		if !allowMethods(w, r, http.MethodGet, http.MethodPost) {
			return
		}
		query := r.URL.Query().Get("sql")
		deadlineMS, err := msParam(r, "deadline_ms")
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		if r.Method == http.MethodPost {
			var req QueryRequest
			if !readJSON(w, r, 1<<20, &req) {
				return
			}
			query = req.SQL
			if req.DeadlineMS > 0 {
				deadlineMS = req.DeadlineMS
			}
		}
		if query == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing sql"})
			return
		}
		deadline, err := millis("deadline_ms", deadlineMS)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		// The request context carries client disconnects; a per-query
		// deadline layers on top, unless it is too far off for a
		// time.Duration. Either way a done context aborts the query at
		// the next superstep barrier and frees its session.
		ctx := r.Context()
		if deadline > 0 && deadline < math.MaxInt64 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		res, err := s.QueryContext(ctx, query)
		if err != nil {
			writeQueryError(w, s, err)
			return
		}
		writeJSON(w, http.StatusOK, toQueryResponse(res))
	})
	mux.HandleFunc("/subscribe", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var req SubscribeRequest
			if !readJSON(w, r, 1<<20, &req) {
				return
			}
			if req.SQL == "" {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing sql"})
				return
			}
			res, err := s.Subscribe(req.SQL)
			if err != nil {
				writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, toSubscribeResponse(res))
		case http.MethodGet:
			fp := r.URL.Query().Get("fp")
			if fp == "" {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing fp"})
				return
			}
			after := uint64(0)
			if v := r.URL.Query().Get("after"); v != "" {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad after: " + err.Error()})
					return
				}
				after = n
			}
			waitMS, err := msParam(r, "wait_ms")
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
				return
			}
			wait, err := clampWait(waitMS)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			defer cancel()
			answer, epoch, ok := s.WaitAnswer(ctx, fp, after)
			if !ok {
				writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown subscription " + fp})
				return
			}
			writeJSON(w, http.StatusOK, answerResponse(fp, epoch, answer))
		case http.MethodDelete:
			fp := r.URL.Query().Get("fp")
			if fp == "" {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing fp"})
				return
			}
			remaining, ok := s.Unsubscribe(fp)
			if !ok {
				writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown subscription " + fp})
				return
			}
			writeJSON(w, http.StatusOK, UnsubscribeResponse{FP: fp, Pins: remaining})
		default:
			w.Header().Set("Allow", "POST, GET, DELETE")
			writeJSON(w, http.StatusMethodNotAllowed,
				errorResponse{Error: fmt.Sprintf("method %s not allowed (allow: POST, GET, DELETE)", r.Method)})
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethods(w, r, http.MethodGet, http.MethodHead) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.WriteMetrics(w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethods(w, r, http.MethodGet, http.MethodHead) {
			return
		}
		writeJSON(w, http.StatusOK, statsJSON(s.Stats()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethods(w, r, http.MethodGet, http.MethodHead) {
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	})
	return mux
}

// writeQueryError maps a query failure to its HTTP shape: admission
// refusals become 429 with a Retry-After header (the client may safely
// retry after the hinted backoff — the query never started), deadline
// and cancellation aborts become 408, and everything else stays the
// 422 the JSON API has always served for bad statements.
func writeQueryError(w http.ResponseWriter, s *Server, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		writeRetry(w, s, err)
	case errors.Is(err, dist.ErrDegraded):
		// The distributed topology lost a node; no retry will succeed
		// until the cluster is restarted.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusRequestTimeout, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
	}
}

// writeRetry answers an admission refusal: 429 with the server's
// Retry-After hint in whole seconds.
func writeRetry(w http.ResponseWriter, s *Server, err error) {
	w.Header().Set("Retry-After", strconv.FormatInt(int64(s.RetryAfter()/time.Second), 10))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
}

// readJSON decodes a request body of at most limit bytes into v. On
// failure it answers 400 and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// msParam reads a millisecond URL parameter (deadline_ms, wait_ms); an
// absent one reads as 0.
func msParam(r *http.Request, name string) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", name, err)
	}
	return ms, nil
}

// millis converts a client's millisecond count to a Duration; a count
// that is not positive is 0. A non-finite count is refused. A count past
// the Duration range saturates at the largest Duration instead of
// wrapping negative, so a huge deadline_ms means no deadline and a huge
// wait_ms clamps to maxWait.
func millis(name string, ms float64) (time.Duration, error) {
	if math.IsNaN(ms) || math.IsInf(ms, 0) {
		return 0, fmt.Errorf("bad %s: %v is not finite", name, ms)
	}
	// float64(math.MaxInt64) is 2^63, one past the range.
	switch ns := ms * float64(time.Millisecond); {
	case ns >= math.MaxInt64:
		return math.MaxInt64, nil
	case ns <= 0:
		return 0, nil
	default:
		return time.Duration(ns), nil
	}
}

// allowMethods enforces an endpoint's method set: an unsupported method
// gets 405 with an Allow header per RFC 9110 and the handler stops.
func allowMethods(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	writeJSON(w, http.StatusMethodNotAllowed,
		errorResponse{Error: fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, strings.Join(methods, ", "))})
	return false
}

func toSubscribeResponse(res *SubscribeResult) SubscribeResponse {
	out := answerResponse(res.FP, res.Epoch, res.Answer)
	out.Incremental = res.Eligible
	out.Reason = res.Reason
	out.Pins = res.Pins
	return out
}

// answerResponse renders a pinned query's current answer; Incremental,
// Reason and Pins stay zero on the long-poll path (they are properties
// of the pin, reported when it is made).
func answerResponse(fp string, epoch uint64, answer *relation.Relation) SubscribeResponse {
	cols, rows := jsonTable(answer)
	return SubscribeResponse{FP: fp, Epoch: epoch, Columns: cols, Rows: rows, RowCount: answer.Len()}
}

func toQueryResponse(res *Result) QueryResponse {
	cols, rows := jsonTable(res.Rows)
	return QueryResponse{
		Columns:  cols,
		Rows:     rows,
		RowCount: res.Rows.Len(),
		Agg:      res.Info.Agg.String(),
		Acyclic:  res.Info.Acyclic,
		Prepared: res.Prepared,
		Epoch:    res.Epoch,
		Millis:   ms(res.Elapsed),
		Messages: res.Cost.Messages,
	}
}

// jsonTable renders a relation's column names and rows, each cell by
// JSONValue.
func jsonTable(rel *relation.Relation) ([]string, [][]any) {
	cols := make([]string, 0, rel.Schema.Len())
	for _, c := range rel.Schema.Columns {
		cols = append(cols, c.Name)
	}
	rows := make([][]any, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		row := make([]any, len(t))
		for i, v := range t {
			row[i] = JSONValue(v)
		}
		rows = append(rows, row)
	}
	return cols, rows
}

// decodeWrite converts a WriteRequest to a Maintainer op, decoding
// insert rows against the target table's schema (schemas are immutable
// across generations, so the current head's catalog is authoritative).
func decodeWrite(s *Server, req WriteRequest) (WriteOp, error) {
	op := WriteOp{Table: req.Table}
	for _, id := range req.Delete {
		// Guard the int64 → int32 narrowing: a wrapped id could alias a
		// live vertex and silently delete the wrong row.
		if id < 0 || id > math.MaxInt32 {
			return op, fmt.Errorf("serve: no vertex %d", id)
		}
		op.Delete = append(op.Delete, bsp.VertexID(id))
	}
	if len(req.Insert) == 0 {
		return op, nil
	}
	if req.Table == "" {
		return op, fmt.Errorf("serve: insert without a table")
	}
	rel := s.Graph().Catalog.Get(req.Table)
	if rel == nil {
		return op, fmt.Errorf("serve: unknown table %q", req.Table)
	}
	for i, raw := range req.Insert {
		row, err := decodeRow(rel.Schema, raw)
		if err != nil {
			return op, fmt.Errorf("row %d: %w", i, err)
		}
		op.Insert = append(op.Insert, row)
	}
	return op, nil
}

// decodeRow maps JSON cells to typed values per the schema.
func decodeRow(schema *relation.Schema, raw []any) (relation.Tuple, error) {
	if len(raw) != schema.Len() {
		return nil, fmt.Errorf("arity %d != schema arity %d", len(raw), schema.Len())
	}
	row := make(relation.Tuple, len(raw))
	for i, cell := range raw {
		col := schema.Columns[i]
		switch cell := cell.(type) {
		case nil:
			row[i] = relation.Null
		case float64:
			switch col.Kind {
			case relation.KindInt, relation.KindDate:
				if cell != math.Trunc(cell) || math.Abs(cell) > 1<<53 {
					return nil, fmt.Errorf("column %s: %v is not an exact integer", col.Name, cell)
				}
				switch {
				case col.Kind == relation.KindInt:
					row[i] = relation.Int(int64(cell))
				case cell < float64(minDay.I) || cell > float64(maxDay.I):
					// Only these days have the "YYYY-MM-DD" form /query
					// serves dates in.
					return nil, fmt.Errorf("column %s: day %v is outside 0000-01-01..9999-12-31", col.Name, cell)
				default:
					row[i] = relation.Date(int64(cell))
				}
			case relation.KindFloat:
				row[i] = relation.Float(cell)
			default:
				return nil, fmt.Errorf("column %s: number for %s column", col.Name, col.Kind)
			}
		case string:
			switch col.Kind {
			case relation.KindString:
				row[i] = relation.Str(cell)
			case relation.KindInt:
				// Mirror of the output encoding: INT cells beyond ±2^53 are
				// served as decimal strings, so /query output must round-trip
				// back through /write.
				n, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("column %s: %q is not an integer", col.Name, cell)
				}
				row[i] = relation.Int(n)
			case relation.KindDate:
				v, err := relation.ParseDate(cell)
				if err != nil {
					return nil, fmt.Errorf("column %s: %w", col.Name, err)
				}
				row[i] = v
			case relation.KindFloat:
				// Mirror of the output encoding of non-finite floats.
				f, ok := nonFinite[cell]
				if !ok {
					return nil, fmt.Errorf("column %s: %q is not NaN, +Inf or -Inf", col.Name, cell)
				}
				row[i] = relation.Float(f)
			default:
				return nil, fmt.Errorf("column %s: string for %s column", col.Name, col.Kind)
			}
		case bool:
			if col.Kind != relation.KindBool {
				return nil, fmt.Errorf("column %s: bool for %s column", col.Name, col.Kind)
			}
			row[i] = relation.Bool(cell)
		default:
			return nil, fmt.Errorf("column %s: unsupported JSON value %T", col.Name, cell)
		}
	}
	return row, nil
}

// maxExactJSONInt is the largest integer magnitude a float64-backed
// JSON client decodes exactly (2^53).
const maxExactJSONInt = int64(1) << 53

// minDay and maxDay bound the DATE cells /write accepts as day numbers.
var minDay, maxDay = relation.DateOf(0, 1, 1), relation.DateOf(9999, 12, 31)

// nonFinite maps the strings JSONValue renders non-finite FLOAT cells
// as back to their values.
var nonFinite = map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}

// JSONValue maps a relation.Value to its natural JSON representation.
// INT cells beyond ±2^53 are rendered as decimal strings: most JSON
// clients decode numbers into float64, which would silently round them
// (see the QueryResponse doc). FLOAT cells JSON has no number for are
// rendered as "NaN", "+Inf" or "-Inf". Exported so cross-protocol
// identity checks can render binary-protocol rows exactly as /query
// would.
func JSONValue(v relation.Value) any {
	switch v.Kind {
	case relation.KindNull:
		return nil
	case relation.KindInt:
		if v.I > maxExactJSONInt || v.I < -maxExactJSONInt {
			return strconv.FormatInt(v.I, 10)
		}
		return v.I
	case relation.KindFloat:
		switch {
		case math.IsNaN(v.F):
			return "NaN"
		case math.IsInf(v.F, 1):
			return "+Inf"
		case math.IsInf(v.F, -1):
			return "-Inf"
		}
		return v.F
	case relation.KindBool:
		return v.I != 0
	default: // strings and dates render as their stable string form
		return v.String()
	}
}

// writeJSON encodes body before writing the status line, so a body
// that cannot be encoded answers 500 with an error instead of the
// intended status and an empty body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(errorResponse{Error: err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
