package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/relation"
	"repro/internal/sql"
)

// sessionCodec is the bsp.PayloadCodec of the SQL execution layer: it
// serializes every payload, combiner accumulator and emit value the
// vertex programs of this package put on the message plane, so the
// same programs run unchanged whether the partitions are simulated in
// one process or spread over internal/dist workers. The simulated
// engine prices the exact bytes this codec produces, which is what
// makes Stats.NetworkBytes equal measured bytes-on-wire.
//
// Every encoding starts with a tag byte; tag ctBasic defers to
// bsp.BasicCodec for the primitive vocabulary (nil, bool, ints,
// strings, vertex ids), so core programs can keep using primitives
// freely.
type sessionCodec struct {
	basic bsp.BasicCodec
}

const (
	ctBasic byte = iota
	ctCycleMsg
	ctValueBatch
	_ // retired: the reduction's combined sender batch
	ctTable
	ctTableBatch
	ctPartialGroups
	_ // retired: a bare aggregation group (groups travel in ctPartialGroups)
	_ // retired: a relation.Tuple
	_ // retired: a []relation.Value (single-alias scans emit vertex ids)
	_ // retired: §6.3 Algorithm A's tuple relay
	_ // retired: §7's two-way outer-join reply
	ctRootVal
	_ // retired: a cycle pre-pass relay mark (workers record survivors)
	_ // retired: a bare relation.Value
	ctValueTuples
)

// Append implements bsp.PayloadCodec.
func (c sessionCodec) Append(dst []byte, pay any) ([]byte, error) {
	switch m := pay.(type) {
	case cycleMsg:
		return relation.AppendValue(append(dst, ctCycleMsg), m.val)
	case *valueBatch:
		return appendValues(append(dst, ctValueBatch), m.vals)
	case *table:
		return appendTable(append(dst, ctTable), m)
	case *tableBatch:
		return appendTable(append(dst, ctTableBatch), m.t)
	case *partialGroups:
		return appendPartialGroups(append(dst, ctPartialGroups), m)
	case rootVal:
		dst = binary.AppendUvarint(append(dst, ctRootVal), uint64(m.v))
		return appendTable(dst, m.t)
	case *valueTuples:
		dst = binary.AppendUvarint(append(dst, ctValueTuples), uint64(m.width))
		return appendValues(dst, m.vals)
	default:
		return c.basic.Append(append(dst, ctBasic), pay)
	}
}

// Decode implements bsp.PayloadCodec. Every non-basic decode consumes
// the full buffer (Finish), so trailing garbage surfaces as an error
// instead of being silently dropped.
func (c sessionCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty payload encoding")
	}
	if data[0] == ctBasic {
		return c.basic.Decode(data[1:])
	}
	d := codec.NewDecoder(data[1:])
	pay, err := decodeTagged(data[0], d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return pay, nil
}

func decodeTagged(tag byte, d *codec.Decoder) (any, error) {
	switch tag {
	case ctCycleMsg:
		v, err := relation.DecodeValue(d)
		if err != nil {
			return nil, err
		}
		return cycleMsg{val: v}, nil
	case ctValueBatch:
		vals, err := decodeValues(d)
		if err != nil {
			return nil, err
		}
		// Rebuilt through add, so a batch repeating a value decodes to
		// the batch the combiner would have built, and the set is sized
		// by the distinct values rather than by a count off the wire.
		b := &valueBatch{vals: vals[:0]}
		for _, v := range vals {
			b.add(v)
		}
		return b, nil
	case ctTable:
		return decodeTable(d)
	case ctTableBatch:
		t, err := decodeTable(d)
		if err != nil {
			return nil, err
		}
		return &tableBatch{t: t, owned: true}, nil
	case ctPartialGroups:
		return decodePartialGroups(d)
	case ctRootVal:
		v, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		t, err := decodeTable(d)
		if err != nil {
			return nil, err
		}
		return rootVal{v: bsp.VertexID(v), t: t}, nil
	case ctValueTuples:
		w, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		vals, err := decodeValues(d)
		if err != nil {
			return nil, err
		}
		if w < 2 || w > uint64(len(vals)) || uint64(len(vals))%w != 0 {
			return nil, fmt.Errorf("core: %d carried values do not make tuples of %d", len(vals), w)
		}
		// Rebuilt through insert, so repeated tuples decode to the set
		// the attribute vertex would have built.
		t := &valueTuples{width: int(w), vals: vals[:0]}
		for i := 0; i < len(vals); i += int(w) {
			t.insert(vals[i : i+int(w)])
		}
		return t, nil
	default:
		return nil, fmt.Errorf("core: unknown payload tag %#x", tag)
	}
}

func appendValues(b []byte, vals []relation.Value) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	var err error
	for _, v := range vals {
		if b, err = relation.AppendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeValues(d *codec.Decoder) ([]relation.Value, error) {
	n, err := d.Length()
	if err != nil {
		return nil, err
	}
	// Length bounds n by the bytes left, and a value takes at least one,
	// so sizing by n costs at most a Value per input byte.
	vals := make([]relation.Value, 0, n)
	for i := 0; i < n; i++ {
		v, err := relation.DecodeValue(d)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// appendTable encodes a table's rows: their count and, if there are
// any, their width and their values row by row. The header is not
// written: every node compiles the same plan from the same SQL and
// catalog, so the receiving collection step supplies it
// (collectStep.adopt).
func appendTable(b []byte, t *table) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(t.rows)))
	if len(t.rows) == 0 {
		return b, nil
	}
	w := len(t.rows[0])
	b = binary.AppendUvarint(b, uint64(w))
	var err error
	for _, row := range t.rows {
		if len(row) != w {
			return nil, fmt.Errorf("core: table row width %d != %d", len(row), w)
		}
		for _, v := range row {
			if b, err = relation.AppendValue(b, v); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// decodeTable decodes a table without a header: its rows are adopted
// under a collection step's.
func decodeTable(d *codec.Decoder) (*table, error) {
	nrows, err := d.Length()
	if err != nil {
		return nil, err
	}
	t := &table{}
	if nrows == 0 {
		return t, nil
	}
	w, err := d.Length()
	if err != nil {
		return nil, err
	}
	// Every value takes at least one byte, so rows the bytes left cannot
	// back are refused before they are sized; the rows are then carved
	// from one backing array. A collection row holds at least its id
	// column.
	if w == 0 || nrows > d.Remaining()/w {
		return nil, codec.ErrCorrupt
	}
	vals := make([]relation.Value, nrows*w)
	t.rows = make([][]relation.Value, nrows)
	for i := range t.rows {
		row := vals[i*w : (i+1)*w : (i+1)*w]
		for j := range row {
			if row[j], err = relation.DecodeValue(d); err != nil {
				return nil, err
			}
		}
		t.rows[i] = row
	}
	return t, nil
}

// appendGroup encodes one partial aggregation group: key tuple, the
// representative row, and the aggregator states.
func appendGroup(b []byte, g *groupAcc) ([]byte, error) {
	b, err := appendValues(b, g.key)
	if err != nil {
		return nil, err
	}
	if b, err = appendValues(b, g.rep); err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(g.aggs)))
	for i := range g.aggs {
		if b, err = g.aggs[i].AppendBinary(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeGroup(d *codec.Decoder) (*groupAcc, error) {
	key, err := decodeValues(d)
	if err != nil {
		return nil, err
	}
	rep, err := decodeValues(d)
	if err != nil {
		return nil, err
	}
	n, err := d.Length()
	if err != nil {
		return nil, err
	}
	g := &groupAcc{key: key, rep: rep, aggs: make([]sql.Aggregator, 0, codec.CapHint(n))}
	for i := 0; i < n; i++ {
		a, err := sql.DecodeAggregator(d)
		if err != nil {
			return nil, err
		}
		g.aggs = append(g.aggs, a)
	}
	return g, nil
}

// appendPartialGroups encodes the aggregation fold stream: the logical
// pre-combine group count, and the groups in first-arrival order (the
// receiver's group order). The representatives' header is the plan's
// (survivorFolder.header), so it is not written.
func appendPartialGroups(b []byte, pg *partialGroups) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(pg.logicalGroups()))
	b = binary.AppendUvarint(b, uint64(len(pg.groups)))
	var err error
	for _, g := range pg.groups {
		if b, err = appendGroup(b, g); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodePartialGroups(d *codec.Decoder) (*partialGroups, error) {
	logical, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	n, err := d.Length()
	if err != nil {
		return nil, err
	}
	pg := &partialGroups{logical: int(logical),
		groups: make([]*groupAcc, 0, codec.CapHint(n))}
	for i := 0; i < n; i++ {
		g, err := decodeGroup(d)
		if err != nil {
			return nil, err
		}
		pg.groups = append(pg.groups, g)
	}
	return pg, nil
}
