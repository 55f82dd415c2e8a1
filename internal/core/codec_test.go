package core

import (
	"bytes"
	"encoding/binary"
	"math"
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
	grp := &groupAcc{key: tbl.rows[0][:1], rep: tbl.rows[0], aggs: []sql.Aggregator{*count}}
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

// TestWireKeepsKeyIdentity: a set of keys that crosses the wire decodes
// to the identities it held. NaN keys of any bit pattern are one key on
// both sides, and 2.0 is INT 2.
func TestWireKeepsKeyIdentity(t *testing.T) {
	nan, otherNaN := relation.Float(math.NaN()), relation.Float(-math.NaN())
	cells := []relation.Value{nan, relation.Float(2), otherNaN, relation.Int(2), relation.Float(2.5), relation.Float(math.Copysign(0, -1))}
	wantIDs := []relation.Ident{nan.Ident(), relation.Int(2).Ident(), relation.Float(2.5).Ident(), relation.Int(0).Ident()}
	hop := func(pay any) any {
		t.Helper()
		b, err := sessionCodec{}.Append(nil, pay)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sessionCodec{}.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	keys := &valueBatch{}
	for _, v := range cells {
		keys.insertAt([]relation.Value{v}, []int{0})
	}
	got := hop(keys).(*valueBatch)
	if len(got.vals) != len(wantIDs) {
		t.Fatalf("batch of %d keys decodes to %d: %v", len(wantIDs), len(got.vals), got.vals)
	}
	for i, id := range wantIDs {
		if got.vals[i].Ident() != id || !got.contains(id.Value()) {
			t.Errorf("key %d decodes to %v, want identity %v", i, got.vals[i], id)
		}
	}

	tuples := &valueTuples{width: 2}
	for _, v := range cells {
		tuples.insert([]relation.Value{v, relation.Str("x")})
	}
	gotT := hop(tuples).(*valueTuples)
	if n := len(gotT.vals) / gotT.width; n != len(wantIDs) {
		t.Fatalf("%d tuples decode to %d", len(wantIDs), n)
	}
	for _, v := range cells {
		if !gotT.has([]relation.Value{v, relation.Str("x")}, []int{0, 1}) {
			t.Errorf("decoded tuples lack (%v, x)", v)
		}
	}

	if got := hop(cycleMsg{val: otherNaN}).(cycleMsg); got.val.Ident() != nan.Ident() {
		t.Errorf("cycle value decodes to %v, want the NaN key", got.val)
	}

	distinct := sql.NewAggregator(&sql.FuncCall{Name: "COUNT", Distinct: true})
	for _, v := range cells {
		distinct.Observe(v)
	}
	grp := &groupAcc{aggs: []sql.Aggregator{*distinct}}
	pg := hop(&partialGroups{groups: []*groupAcc{grp}}).(*partialGroups)
	if got, want := pg.groups[0].aggs[0].Result(), relation.Int(int64(len(wantIDs))); got != want {
		t.Errorf("COUNT(DISTINCT) decodes to %v, want %v", got, want)
	}
}
