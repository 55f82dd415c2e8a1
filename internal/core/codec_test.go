package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// TestWireCarriesNoHeader pins the encodings of the payloads that carry
// partial results: a table, a tableBatch, a rootVal and a partialGroups
// each encode to their tag, their counts and their values. No header
// string crosses the wire, because every node compiles the same plan
// and takes the header from it.
func TestWireCarriesNoHeader(t *testing.T) {
	header := []string{"nation.n_name", "#nation"}
	tbl := newTable(header)
	tbl.rows = [][]relation.Value{
		{relation.Str("PERU"), relation.Int(3)},
		{relation.Str("CHINA"), relation.Int(4)},
	}
	values := func(b []byte, vals ...relation.Value) []byte {
		t.Helper()
		for _, v := range vals {
			var err error
			if b, err = relation.AppendValue(b, v); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	rows := values([]byte{2, 2}, tbl.rows[0][0], tbl.rows[0][1], tbl.rows[1][0], tbl.rows[1][1])

	count := sql.NewAggregator(&sql.FuncCall{Name: "COUNT", Star: true})
	count.Observe(relation.Int(1))
	grp := &groupAcc{key: tbl.rows[0][:1], rep: tbl.rows[0], aggs: []*sql.Aggregator{count}}
	group := values([]byte{1}, grp.key...)
	group = values(append(group, 2), grp.rep...)
	group, err := count.AppendBinary(append(group, 1))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		pay  any
		want []byte
	}{
		{"table", tbl, append([]byte{ctTable}, rows...)},
		{"empty table", newTable(header), []byte{ctTable, 0}},
		{"tableBatch", &tableBatch{t: tbl}, append([]byte{ctTableBatch}, rows...)},
		{"rootVal", rootVal{v: 300, t: tbl}, append(binary.AppendUvarint([]byte{ctRootVal}, 300), rows...)},
		{"partialGroups", &partialGroups{groups: []*groupAcc{grp}, logical: 5}, append([]byte{ctPartialGroups, 5, 1}, group...)},
	} {
		got, err := sessionCodec{}.Append(nil, tc.pay)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s encodes to %x, want %x", tc.name, got, tc.want)
		}
		for _, h := range append(header, "nation") {
			if bytes.Contains(got, []byte(h)) {
				t.Errorf("%s carries %q", tc.name, h)
			}
		}
		if _, err := (sessionCodec{}).Decode(got); err != nil {
			t.Errorf("%s does not decode: %v", tc.name, err)
		}
	}
}
