package tag

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/relation"
)

// This file is the snapshot codec for a frozen TAG graph: a
// deterministic binary image of everything Build + incremental
// maintenance produced — symbols, materialization choices, catalog,
// vertices (live, dead, and attribute), and the per-label attribute
// index. Edges are NOT serialized: the edge set of a TAG graph is a
// function of its live tuple payloads (one undirected edge per
// materialized non-null cell, §3), so the decoder re-derives them and
// cross-checks the count. That keeps the image near the size of the
// data it encodes instead of the adjacency lists.
//
// Determinism matters: two snapshots of the same state are
// byte-identical (symbols in id order, map keys sorted, vertices in id
// order), so a checkpoint's bytes are a function of the state it
// captures.
//
// Rows are stored once, in the catalog section. Build, InsertBatch and
// DeleteBatch keep one invariant: row i of a table's catalog relation is
// the row of the table's i-th tuple vertex, the same slice. So a tuple's
// vertex record (version 2) is only its label and a tag: a live tuple's
// row is the next catalog row of its table, and a dead tuple, which
// keeps no row, shares its table's one dead payload.
//
// Version 1 images, written before that, are still read. Their tuple
// records carry a row inline — NULLs for a dead tuple, or in the oldest
// images the deleted row — and their catalog rows may follow another
// order after deletes of duplicate rows. The reader takes each live
// row from its vertex record, decodes and drops a dead record's row,
// and rebuilds each table's catalog rows from its live vertices in id
// order.

const (
	snapshotVersion = 2
	// Vertex chunks are bounded so one frame stays far below the codec's
	// frame cap even for SF-scale graphs.
	snapChunkVerts = 64 << 10
	snapChunkBytes = 4 << 20
)

var (
	snapMagic    = []byte("TAGSNAP1")
	snapEndMagic = []byte("TAGSNAPE")
)

// Vertex record tags.
const (
	snapVertNil  = 0 // no payload (the aggregator vertex)
	snapVertLive = 1 // live tuple: its row is its table's next catalog row (version 1: an inline row)
	snapVertDead = 2 // deleted tuple (version 1: the table's arity of NULLs)
	snapVertAttr = 3 // attribute vertex: canonical value
)

// WriteSnapshot writes a deterministic binary image of the graph. The
// graph must be frozen (it always is between maintenance cycles; the
// serving layer snapshots a pinned generation, which is immutable).
func (t *Graph) WriteSnapshot(w io.Writer) error {
	if !t.G.Frozen() {
		return fmt.Errorf("tag: snapshot of a thawed graph")
	}

	// Header: magic, version, counts, aggregator id.
	var hdr []byte
	hdr = append(hdr, snapMagic...)
	hdr = binary.AppendUvarint(hdr, snapshotVersion)
	hdr = binary.AppendUvarint(hdr, uint64(t.G.NumVertices()))
	hdr = binary.AppendUvarint(hdr, uint64(t.G.NumEdges()))
	hdr = binary.AppendUvarint(hdr, uint64(t.Aggregator))
	hdr = binary.AppendUvarint(hdr, uint64(t.G.Symbols.Len()))
	hdr = binary.AppendUvarint(hdr, uint64(len(t.attrByEdge)))
	if err := codec.WriteFrame(w, hdr); err != nil {
		return err
	}

	// Symbols, in id order: re-Interning them in order reproduces the
	// exact id assignment.
	var syms []byte
	for id := 1; id <= t.G.Symbols.Len(); id++ {
		syms = codec.AppendString(syms, t.G.Symbols.Name(bsp.LabelID(id)))
	}
	if err := codec.WriteFrame(w, syms); err != nil {
		return err
	}

	// Materialization choices, sorted by column key. This is the policy's
	// decision record — the decoded graph answers Materialized() (and
	// routes future inserts) exactly as the snapshotted one did, even if
	// the process that loads it was built with a different default policy.
	keys := make([]string, 0, len(t.materialized))
	for k := range t.materialized {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var mat []byte
	mat = binary.AppendUvarint(mat, uint64(len(keys)))
	for _, k := range keys {
		mat = codec.AppendString(mat, k)
		b := byte(0)
		if t.materialized[k] {
			b = 1
		}
		mat = append(mat, b)
	}
	if err := codec.WriteFrame(w, mat); err != nil {
		return err
	}

	if err := t.Catalog.WriteBinary(w); err != nil {
		return err
	}

	// Vertices in id order, chunked. Each record: label, tag, and an
	// attribute vertex's value.
	nv := t.G.NumVertices()
	for start := 0; start < nv; {
		var buf []byte
		n := 0
		for start+n < nv && n < snapChunkVerts && len(buf) < snapChunkBytes {
			v := bsp.VertexID(start + n)
			buf = binary.AppendUvarint(buf, uint64(t.G.Label(v)))
			switch d := t.G.Data(v).(type) {
			case nil:
				buf = append(buf, snapVertNil)
			case *TupleData:
				if d.Dead {
					buf = append(buf, snapVertDead)
				} else {
					buf = append(buf, snapVertLive)
				}
			case *AttrData:
				buf = append(buf, snapVertAttr)
				var err error
				if buf, err = relation.AppendValue(buf, d.Value); err != nil {
					return err
				}
			default:
				return fmt.Errorf("tag: vertex %d has unsnapshotable payload %T", v, d)
			}
			n++
		}
		var chunk []byte
		chunk = binary.AppendUvarint(chunk, uint64(start))
		chunk = binary.AppendUvarint(chunk, uint64(n))
		chunk = append(chunk, buf...)
		if err := codec.WriteFrame(w, chunk); err != nil {
			return err
		}
		start += n
	}

	// The attribute index, one frame per edge label in id order. The
	// lists are kept sorted by maintenance, so they delta-encode well —
	// and they must be serialized, not re-derived from live edges:
	// deletes orphan attribute entries without removing them, and a
	// re-derivation would silently drop those, diverging from the
	// maintained state.
	labels := make([]bsp.LabelID, 0, len(t.attrByEdge))
	for lbl := range t.attrByEdge {
		labels = append(labels, lbl)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	for _, lbl := range labels {
		verts := t.attrByEdge[lbl]
		var idx []byte
		idx = binary.AppendUvarint(idx, uint64(lbl))
		idx = binary.AppendUvarint(idx, uint64(len(verts)))
		prev := bsp.VertexID(0)
		for _, v := range verts {
			idx = binary.AppendUvarint(idx, uint64(v-prev))
			prev = v
		}
		if err := codec.WriteFrame(w, idx); err != nil {
			return err
		}
	}

	// End marker with count cross-checks: its presence is the proof the
	// image is complete, so a torn write can never half-load.
	var end []byte
	end = append(end, snapEndMagic...)
	end = binary.AppendUvarint(end, uint64(t.G.NumVertices()))
	end = binary.AppendUvarint(end, uint64(t.G.NumEdges()))
	return codec.WriteFrame(w, end)
}

// ReadSnapshot decodes one WriteSnapshot image from br, rebuilding the
// graph and every derived lookup structure. The result is frozen and
// behaves exactly like the graph that was snapshotted — same vertex
// ids, same symbols, same adjacency, same maintenance behavior. Torn or
// corrupt input surfaces as codec.ErrCorrupt.
func ReadSnapshot(br *bufio.Reader) (*Graph, error) {
	readFrame := func() (*codec.Decoder, error) {
		payload, _, err := codec.ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				return nil, codec.ErrCorrupt
			}
			return nil, err
		}
		return codec.NewDecoder(payload), nil
	}

	// Header.
	d, err := readFrame()
	if err != nil {
		return nil, err
	}
	magic, err := d.Take(len(snapMagic))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(magic, snapMagic) {
		return nil, fmt.Errorf("tag: not a snapshot (bad magic)")
	}
	ver, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != 1 && ver != snapshotVersion {
		return nil, fmt.Errorf("tag: unsupported snapshot version %d", ver)
	}
	numVerts, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	numEdges, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	aggregator, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	numSyms, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	numAttrLabels, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if aggregator >= numVerts {
		return nil, codec.ErrCorrupt
	}

	t := &Graph{
		Aggregator:  bsp.VertexID(aggregator),
		attrs:       newAttrDict(),
		tupleVerts:  make(map[string][]bsp.VertexID),
		tupleLabel:  make(map[string]bsp.LabelID),
		dead:        make(map[string]*TupleData),
		attrByEdge:  make(map[bsp.LabelID][]bsp.VertexID),
		edgeLabel:   make(map[string]bsp.LabelID),
		attrKindLbl: make(map[relation.Kind]bsp.LabelID),
		deltaBase:   -1,
	}

	// Symbols: re-Intern in id order.
	if d, err = readFrame(); err != nil {
		return nil, err
	}
	syms := bsp.NewSymbolTable()
	for id := uint64(1); id <= numSyms; id++ {
		name, err := d.Str()
		if err != nil {
			return nil, err
		}
		if got := syms.Intern(name); got != bsp.LabelID(id) {
			return nil, codec.ErrCorrupt
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}

	// Materialization map; the policy closure answers from it, so future
	// incremental inserts follow the snapshotted choices.
	if d, err = readFrame(); err != nil {
		return nil, err
	}
	nmat, err := d.Length()
	if err != nil {
		return nil, err
	}
	t.materialized = make(map[string]bool, nmat)
	for i := 0; i < nmat; i++ {
		key, err := d.Str()
		if err != nil {
			return nil, err
		}
		b, err := d.Byte()
		if err != nil {
			return nil, err
		}
		t.materialized[key] = b == 1
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	mat := t.materialized
	t.policy = func(table string, col relation.Column) bool {
		return mat[strings.ToLower(table)+"."+strings.ToLower(col.Name)]
	}

	cat, err := relation.ReadCatalog(br)
	if err != nil {
		return nil, err
	}
	t.Catalog = cat

	// Labels are a function of the symbol table: tuple labels are the
	// lowercase table names, edge labels the column keys.
	nsyms := uint64(syms.Len())
	tables := make([]*snapTable, nsyms+1) // by tuple label
	for _, name := range cat.Names() {
		table := strings.ToLower(name)
		lbl := syms.Lookup(table)
		if lbl == bsp.NoLabel {
			return nil, codec.ErrCorrupt
		}
		rel := cat.Get(name)
		tb := &snapTable{name: table, arity: rel.Schema.Len(), rows: rel.Tuples,
			dead: &TupleData{Table: table, Dead: true}}
		if ver == 1 {
			tb.rows = slices.Grow([]relation.Tuple(nil), len(rel.Tuples))
		} else {
			for _, row := range rel.Tuples {
				if len(row) != tb.arity {
					return nil, codec.ErrCorrupt
				}
			}
		}
		tables[lbl] = tb
		t.tupleLabel[table] = lbl
		if n := len(rel.Tuples); n > 0 {
			t.tupleVerts[table] = make([]bsp.VertexID, 0, n)
		}
		t.dead[table] = tb.dead
	}
	for key := range t.materialized {
		lbl := syms.Lookup(key)
		if lbl == bsp.NoLabel {
			return nil, codec.ErrCorrupt
		}
		t.edgeLabel[key] = lbl
	}
	var attrLbl [relation.KindDate + 1]bsp.LabelID // by value kind, looked up on first use

	// Vertices, in id order; each chunk's start is asserted against the
	// next id. The vertex arrays grow a chunk at a time, by the chunk's
	// record count: numVerts is not trusted, but every record is at least
	// a label byte and a tag byte, so the chunk's own bytes back the
	// reservation.
	var labels []bsp.LabelID
	var data []any
	var tuples slab[TupleData]
	var attrs slab[AttrData]
	for next := uint64(0); next < numVerts; {
		d, err := readFrame()
		if err != nil {
			return nil, err
		}
		start, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if start != next {
			return nil, codec.ErrCorrupt
		}
		n, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if n == 0 || start+n > numVerts || n > uint64(d.Remaining()/2) {
			return nil, codec.ErrCorrupt
		}
		labels, data = reserve(labels, int(n)), reserve(data, int(n))
		for i := uint64(0); i < n; i++ {
			id := bsp.VertexID(start + i)
			lblRaw, err := d.Uvarint()
			if err != nil {
				return nil, err
			}
			if lblRaw == 0 || lblRaw > nsyms {
				return nil, codec.ErrCorrupt
			}
			lbl := bsp.LabelID(lblRaw)
			tagByte, err := d.Byte()
			if err != nil {
				return nil, err
			}
			// Each payload must be one Build or maintenance could have
			// made: the aggregator is the only vertex without one, a tuple
			// is labeled by its table and has the table's arity, and an
			// attribute value is canonical, unique and labeled by its kind.
			var payload any
			switch tagByte {
			case snapVertNil:
				if start+i != aggregator {
					return nil, codec.ErrCorrupt
				}
			case snapVertLive, snapVertDead:
				tb := tables[lbl]
				if tb == nil {
					return nil, codec.ErrCorrupt
				}
				dead := tagByte == snapVertDead
				row, err := tb.record(d, ver, dead)
				if err != nil {
					return nil, err
				}
				if dead {
					payload = tb.dead
				} else {
					payload = tuples.new(TupleData{Table: tb.name, Row: row})
					t.tupleVerts[tb.name] = append(t.tupleVerts[tb.name], id)
				}
			case snapVertAttr:
				v, err := relation.DecodeValue(d)
				if err != nil {
					return nil, err
				}
				// An attribute value is its own key: Ident keeps its kind.
				key := v.Ident()
				if v.IsNull() || key.Kind != v.Kind {
					return nil, codec.ErrCorrupt
				}
				if attrLbl[v.Kind] == bsp.NoLabel {
					attrLbl[v.Kind] = syms.Lookup("#attr:" + v.Kind.String())
				}
				if _, dup := t.attrs.lookup(key); dup || lbl != attrLbl[v.Kind] {
					return nil, codec.ErrCorrupt
				}
				payload = attrs.new(AttrData{Value: v})
				t.attrs.add(key, id)
				t.attrKindLbl[v.Kind] = lbl
			default:
				return nil, codec.ErrCorrupt
			}
			labels = append(labels, lbl)
			data = append(data, payload)
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		next = start + n
	}
	if data[t.Aggregator] != nil {
		return nil, codec.ErrCorrupt
	}
	for _, name := range cat.Names() {
		rel := cat.Get(name)
		if len(t.tupleVerts[strings.ToLower(name)]) != len(rel.Tuples) {
			return nil, codec.ErrCorrupt
		}
		if ver == 1 {
			rel.Tuples = tables[t.tupleLabel[strings.ToLower(name)]].rows
		}
	}

	// Re-derive the edges from the live rows: one undirected edge per
	// materialized non-null cell, targeting the cell value's attribute
	// vertex. Tables and columns run in the order Build interned their
	// labels, and each table's tuples in id order, so assemble fills
	// every list in order.
	var cols []edgeColumn
	cells := uint64(0)
	for _, name := range cat.Names() {
		table := strings.ToLower(name)
		rel := cat.Get(table)
		for i, col := range rel.Schema.Columns {
			key := table + "." + strings.ToLower(col.Name)
			if !t.materialized[key] {
				continue
			}
			c := edgeColumn{col: i, label: t.edgeLabel[key], tuples: t.tupleVerts[table],
				attrs: make([]bsp.VertexID, len(rel.Tuples))}
			for j, row := range rel.Tuples {
				if row[i].IsNull() {
					c.attrs[j] = noVertex
					continue
				}
				av, ok := t.attrs.lookup(row[i].Ident())
				if !ok {
					return nil, codec.ErrCorrupt
				}
				c.attrs[j] = av
				cells++
			}
			cols = append(cols, c)
		}
	}
	if 2*cells != numEdges {
		// The re-derived edge set disagrees with the snapshotted count:
		// the image is internally inconsistent.
		return nil, codec.ErrCorrupt
	}
	if t.G, err = assemble(syms, labels, data, cols); err != nil {
		return nil, err
	}

	// The attribute index (attrByEdge survives orphaning, so it is
	// serialized state, not derived).
	for i := uint64(0); i < numAttrLabels; i++ {
		d, err := readFrame()
		if err != nil {
			return nil, err
		}
		lblRaw, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if lblRaw > nsyms {
			return nil, codec.ErrCorrupt
		}
		lbl := bsp.LabelID(lblRaw)
		if el, ok := t.edgeLabel[t.G.Symbols.Name(lbl)]; !ok || el != lbl {
			return nil, codec.ErrCorrupt
		}
		if _, dup := t.attrByEdge[lbl]; dup {
			return nil, codec.ErrCorrupt
		}
		n, err := d.Length()
		if err != nil {
			return nil, err
		}
		verts := make([]bsp.VertexID, 0, codec.CapHint(n))
		prev := bsp.VertexID(0)
		for j := 0; j < n; j++ {
			delta, err := d.Uvarint()
			if err != nil {
				return nil, err
			}
			if j > 0 && delta == 0 || delta >= numVerts-uint64(prev) {
				return nil, codec.ErrCorrupt
			}
			prev += bsp.VertexID(delta)
			if !t.IsAttr(prev) {
				return nil, codec.ErrCorrupt
			}
			verts = append(verts, prev)
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		t.attrByEdge[lbl] = verts
	}

	// End marker: completeness proof plus count cross-checks.
	if d, err = readFrame(); err != nil {
		return nil, err
	}
	endMagic, err := d.Take(len(snapEndMagic))
	if err != nil {
		return nil, err
	}
	ev, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	ee, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if !bytes.Equal(endMagic, snapEndMagic) || ev != numVerts || ee != numEdges {
		return nil, codec.ErrCorrupt
	}
	return t, nil
}

// reserve returns s with room for n more elements. A slice that has to
// move at least doubles, so reserving chunk by chunk stays linear.
func reserve[E any](s []E, n int) []E {
	if n <= cap(s)-len(s) {
		return s
	}
	return append(make([]E, 0, len(s)+max(n, cap(s))), s...)
}

// snapTable is one table as ReadSnapshot meets its tuple records.
type snapTable struct {
	name  string
	arity int
	dead  *TupleData // the payload the table's dead tuples share
	// rows are the table's rows in tuple-vertex order: under version 2
	// the catalog's, taken by live records in turn; under version 1
	// collected from the live records.
	rows []relation.Tuple
	next int // live records read so far
}

// record decodes the rest of one tuple record of this table and returns
// a live tuple's row.
func (tb *snapTable) record(d *codec.Decoder, ver uint64, dead bool) (relation.Tuple, error) {
	switch {
	case ver == 1:
		row, err := relation.DecodeTuple(d)
		if err != nil {
			return nil, err
		}
		if len(row) != tb.arity {
			return nil, codec.ErrCorrupt
		}
		if dead {
			return nil, nil // the row a version-1 dead record carries is dropped
		}
		tb.rows = append(tb.rows, row)
	case dead:
		return nil, nil
	case tb.next == len(tb.rows):
		return nil, codec.ErrCorrupt // more live records than catalog rows
	}
	tb.next++
	return tb.rows[tb.next-1], nil
}
