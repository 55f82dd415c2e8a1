package proto

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// TestTPCHRowsIdenticalAcrossProtocols runs every TPC-H query over both
// surfaces of one server and requires the binary rows — rendered with
// the same JSONValue mapping /query uses — to marshal to exactly the
// bytes the HTTP response carried, row for row. This is the
// interchangeability proof: a client migrating to the binary protocol
// sees the identical result set, large-int string forms and all.
func TestTPCHRowsIdenticalAcrossProtocols(t *testing.T) {
	g, err := tag.Build(tpch.Generate(0.05, 2021), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(g, serve.Options{Sessions: 4})
	hs := httptest.NewServer(serve.Handler(srv))
	defer hs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps := Serve(ln, srv)
	defer ps.Close()
	bc, err := Dial(ps.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	for _, q := range tpch.Queries() {
		bres, err := bc.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s over binary: %v", q.ID, err)
		}
		resp, err := hs.Client().Get(hs.URL + "/query?sql=" + url.QueryEscape(q.SQL))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s over http: status %d: %s", q.ID, resp.StatusCode, body)
		}
		var hres struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &hres); err != nil {
			t.Fatal(err)
		}
		if len(hres.Rows) != bres.Rows.Len() {
			t.Fatalf("%s: binary returned %d rows, http %d", q.ID, bres.Rows.Len(), len(hres.Rows))
		}
		for i, tuple := range bres.Rows.Tuples {
			cells := make([]any, len(tuple))
			for j, v := range tuple {
				cells[j] = serve.JSONValue(v)
			}
			mine, err := json.Marshal(cells)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mine, hres.Rows[i]) {
				t.Fatalf("%s row %d differs across protocols:\nbinary %s\nhttp   %s", q.ID, i, mine, hres.Rows[i])
			}
		}
	}
}
