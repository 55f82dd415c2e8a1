package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
)

// samplePayloads returns one value of every payload kind sessionCodec
// puts on the message plane.
func samplePayloads() []any {
	row := []relation.Value{relation.Int(7), relation.Str("p\x1fq"), relation.Float(2.5), relation.Null}
	tbl := newTable([]string{"a.x", "a.s", "a.f", "#a"})
	tbl.rows = [][]relation.Value{row, {relation.Int(-1), relation.Str(""), relation.Float(math.NaN()), relation.Int(3)}}
	sum := sql.NewAggregator(&sql.FuncCall{Name: "SUM", Args: []sql.Expr{&sql.ColRef{Column: "x"}}})
	sum.Observe(relation.Float(0.1))
	sum.Observe(relation.Float(1e300))
	count := sql.NewAggregator(&sql.FuncCall{Name: "COUNT", Star: true})
	count.Observe(relation.Int(1))
	grp := &groupAcc{key: row[:2], rep: row, aggs: []sql.Aggregator{*sum, *count}}
	vb := &valueBatch{}
	vb.add(relation.Int(1))
	vb.add(relation.Str("two"))
	// The reduction's carried values: one class's value as a cycleMsg,
	// two classes' values (a k = 3 edge) as one tuple, and the sets an
	// attribute vertex forwards, of one class's keys and of two classes'
	// values, past the linear scan.
	keys := &valueBatch{}
	for i := range 10 {
		keys.add(relation.Int(int64(i * i)))
	}
	keys.add(relation.Str("supplier#7"))
	one := &valueTuples{width: 2}
	one.insert([]relation.Value{relation.Int(7), relation.Str("s#7")})
	set := &valueTuples{width: 2}
	for i := range 10 {
		set.insert([]relation.Value{relation.Int(int64(i)), relation.Float(float64(i) + 0.5)})
	}
	set.insert([]relation.Value{relation.Null, relation.Str("")})
	// The NaN key, which every NaN cell shares, in a carried set of one
	// class's keys and in a set of two classes' values.
	nan, otherNaN := relation.Float(math.NaN()), relation.Float(-math.NaN())
	nanKeys := &valueBatch{}
	for _, v := range []relation.Value{nan, relation.Float(2), otherNaN, relation.Float(2.5)} {
		nanKeys.insertAt([]relation.Value{v}, []int{0})
	}
	nanTuples := &valueTuples{width: 2}
	for _, tu := range [][]relation.Value{{nan, relation.Int(1)}, {otherNaN, relation.Int(1)}, {relation.Int(1), nan}} {
		nanTuples.insert(tu)
	}
	return []any{
		nil, true, 42, int64(-5), "basic", bsp.VertexID(9), []bsp.VertexID{1, 2, 3},
		cycleMsg{val: relation.Date(19000)},
		cycleMsg{val: relation.Null},
		cycleMsg{val: relation.Int(-42)},
		cycleMsg{val: relation.Float(2.5)},
		cycleMsg{val: relation.Str("supplier#7")},
		cycleMsg{val: nan},
		vb,
		keys,
		one,
		set,
		nanKeys,
		nanTuples,
		tbl,
		&tableBatch{t: tbl, owned: true},
		&partialGroups{groups: []*groupAcc{grp}, logical: 3},
		// A peer's group of one accumulator beside one of two under the
		// same key: it decodes, and projectGroups refuses it.
		&partialGroups{groups: []*groupAcc{grp, {key: row[:2], rep: row, aggs: []sql.Aggregator{*count}}}},
		rootVal{v: 11, t: tbl},
		rootVal{v: 13, t: &table{}},
	}
}

// FuzzSessionCodec: a distributed run feeds sessionCodec.Decode bytes
// from the cluster wire. On any input it never panics and never
// allocates more than a constant factor of the bytes it was given, and
// every payload it accepts re-encodes to a canonical encoding that
// decodes and re-encodes to itself.
func FuzzSessionCodec(f *testing.F) {
	var c sessionCodec
	for _, p := range samplePayloads() {
		b, err := c.Append(nil, p)
		if err != nil {
			f.Fatalf("%T: %v", p, err)
		}
		for _, n := range []int{0, 1, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
		f.Add(b)
	}
	// Counts the input backs one byte per element: a value batch of
	// NULLs, many rows of no columns (refused), and many one-column rows
	// of NULL.
	const n = 1 << 14
	many := func(prefix []byte, count int, elem []byte, suffix []byte) []byte {
		b := binary.AppendUvarint(append([]byte(nil), prefix...), uint64(count))
		b = append(b, bytes.Repeat(elem, count)...)
		return append(b, suffix...)
	}
	f.Add(many([]byte{ctValueBatch}, n, []byte{byte(relation.KindNull)}, nil))
	f.Add(many([]byte{ctValueTuples, 2}, n, []byte{byte(relation.KindNull)}, nil))
	f.Add(many([]byte{ctValueTuples, 3}, n, []byte{byte(relation.KindNull)}, nil))
	f.Add(many([]byte{ctTable}, n, []byte{0}, nil))
	f.Add(many([]byte{ctTable}, n, nil, append([]byte{1}, bytes.Repeat([]byte{byte(relation.KindNull)}, n)...)))
	// Retired tag bytes name no payload kind: each must fail to decode,
	// bare or in front of the well-formed body of any live kind.
	bodies := [][]byte{nil}
	for _, p := range samplePayloads() {
		if b, _ := c.Append(nil, p); b[0] != ctBasic {
			bodies = append(bodies, b[1:])
		}
	}
	retired := func(b []byte) {
		if pay, err := c.Decode(b); err == nil {
			f.Fatalf("retired tag %d decodes to %T", b[0], pay)
		}
		f.Add(b)
	}
	for _, tag := range []byte{3, 7, 8, 9, 10, 11, 13, 14} {
		for _, body := range bodies {
			retired(append([]byte{tag}, body...))
		}
	}
	// Byte 9 fronted a bare value list: a row a table scan emitted.
	for _, vals := range [][]relation.Value{nil, {relation.Null}, {relation.Int(7), relation.Str("p")}} {
		b, _ := appendValues([]byte{9}, vals)
		retired(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pay, err := c.Decode(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		canon, err := c.Append(nil, pay)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", pay, err)
		}
		again, err := c.Decode(canon)
		if err != nil {
			t.Fatalf("canonical re-encoding of %T does not decode: %v", pay, err)
		}
		got, err := c.Append(nil, again)
		if err != nil {
			t.Fatalf("re-decoded %T does not re-encode: %v", again, err)
		}
		if !bytes.Equal(got, canon) {
			t.Fatalf("re-encoding of %T is not a fixpoint:\n got %x\nwant %x", pay, got, canon)
		}
	})
}
