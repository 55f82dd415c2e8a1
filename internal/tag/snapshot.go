package tag

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
// Vertex payload rows are encoded inline rather than shared with the
// catalog section by position: after deletes of duplicate rows the
// catalog's row order and the live-vertex payload order can diverge
// (DeleteBatch drops the first value-equal catalog row, not the
// positional one), and WAL suffix records address tuples by vertex id —
// so each vertex must carry exactly its own row.

const (
	snapshotVersion = 1
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
	snapVertLive = 1 // live tuple: inline row
	snapVertDead = 2 // deleted tuple: the table's arity of NULLs, Dead set
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

	// Vertices in id order, chunked. Each record: label, tag, payload.
	nv := t.G.NumVertices()
	var nulls relation.Tuple
	for start := 0; start < nv; {
		var buf []byte
		n := 0
		for start+n < nv && n < snapChunkVerts && len(buf) < snapChunkBytes {
			v := bsp.VertexID(start + n)
			buf = binary.AppendUvarint(buf, uint64(t.G.Label(v)))
			var err error
			switch d := t.G.Data(v).(type) {
			case nil:
				buf = append(buf, snapVertNil)
			case *TupleData:
				row := d.Row
				if d.Dead {
					// A dead tuple keeps no row; its record holds the
					// table's arity of NULLs, the shape every reader
					// checks.
					buf = append(buf, snapVertDead)
					row = nulls[:0]
					for range t.Catalog.Get(d.Table).Schema.Len() {
						row = append(row, relation.Null)
					}
					nulls = row
				} else {
					buf = append(buf, snapVertLive)
				}
				if buf, err = relation.AppendTuple(buf, row); err != nil {
					return err
				}
			case *AttrData:
				buf = append(buf, snapVertAttr)
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
	if ver != snapshotVersion {
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
		G:           bsp.NewGraph(),
		Aggregator:  bsp.VertexID(aggregator),
		attrVertex:  make(map[relation.Value]bsp.VertexID),
		tupleVerts:  make(map[string][]bsp.VertexID),
		tupleLabel:  make(map[string]bsp.LabelID),
		attrByEdge:  make(map[bsp.LabelID][]bsp.VertexID),
		edgeLabel:   make(map[string]bsp.LabelID),
		attrKindLbl: make(map[relation.Kind]bsp.LabelID),
		deltaBase:   -1,
	}

	// Symbols: re-Intern in id order.
	if d, err = readFrame(); err != nil {
		return nil, err
	}
	for id := uint64(1); id <= numSyms; id++ {
		name, err := d.Str()
		if err != nil {
			return nil, err
		}
		if got := t.G.Symbols.Intern(name); got != bsp.LabelID(id) {
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
	type snapTable struct {
		name  string
		arity int
	}
	tables := make(map[bsp.LabelID]snapTable)
	for _, name := range cat.Names() {
		table := strings.ToLower(name)
		lbl := t.G.Symbols.Lookup(table)
		if lbl == bsp.NoLabel {
			return nil, codec.ErrCorrupt
		}
		t.tupleLabel[table] = lbl
		tables[lbl] = snapTable{table, cat.Get(name).Schema.Len()}
	}
	for key := range t.materialized {
		lbl := t.G.Symbols.Lookup(key)
		if lbl == bsp.NoLabel {
			return nil, codec.ErrCorrupt
		}
		t.edgeLabel[key] = lbl
	}

	// Vertices, in id order. AddVertex assigns sequential ids, so
	// re-adding in order reproduces the id space; each decoded id is
	// asserted against the expected one.
	nsyms := uint64(t.G.Symbols.Len())
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
		if n == 0 || start+n > numVerts {
			return nil, codec.ErrCorrupt
		}
		for i := uint64(0); i < n; i++ {
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
			var data any
			switch tagByte {
			case snapVertNil:
				if start+i != aggregator {
					return nil, codec.ErrCorrupt
				}
			case snapVertLive, snapVertDead:
				row, err := relation.DecodeTuple(d)
				if err != nil {
					return nil, err
				}
				tb, ok := tables[lbl]
				if !ok || len(row) != tb.arity {
					return nil, codec.ErrCorrupt
				}
				if tagByte == snapVertDead {
					// Images written before dead tuples dropped their rows
					// still carry one; it is dropped here too.
					data = &TupleData{Table: tb.name, Dead: true}
				} else {
					data = &TupleData{Table: tb.name, Row: row}
				}
			case snapVertAttr:
				v, err := relation.DecodeValue(d)
				if err != nil {
					return nil, err
				}
				if _, dup := t.attrVertex[v]; dup || v.IsNull() || v.Key() != v ||
					lbl != t.G.Symbols.Lookup("#attr:"+v.Kind.String()) {
					return nil, codec.ErrCorrupt
				}
				data = &AttrData{Value: v}
			default:
				return nil, codec.ErrCorrupt
			}
			id := t.G.AddVertex(lbl, data)
			if uint64(id) != start+i {
				return nil, codec.ErrCorrupt
			}
			switch pd := data.(type) {
			case *TupleData:
				if !pd.Dead {
					t.tupleVerts[pd.Table] = append(t.tupleVerts[pd.Table], id)
				}
			case *AttrData:
				t.attrVertex[pd.Value] = id
				t.attrKindLbl[pd.Value.Kind] = lbl
			}
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		next = start + n
	}
	if t.G.Data(t.Aggregator) != nil {
		return nil, codec.ErrCorrupt
	}
	for _, name := range cat.Names() {
		if len(t.tupleVerts[strings.ToLower(name)]) != len(cat.Get(name).Tuples) {
			return nil, codec.ErrCorrupt
		}
	}

	// Re-derive the edges from the live tuple payloads: one undirected
	// edge per materialized non-null cell, targeting the cell value's
	// attribute vertex. Column by column, tuples in id order: Build
	// interned the tables' column labels in this order, so each
	// adjacency list comes out sorted and Freeze only has to scan it.
	for _, name := range cat.Names() {
		table := strings.ToLower(name)
		verts := t.tupleVerts[table]
		rows := make([]relation.Tuple, len(verts))
		for i, tv := range verts {
			rows[i] = t.TupleData(tv).Row
		}
		for i, col := range cat.Get(table).Schema.Columns {
			key := table + "." + strings.ToLower(col.Name)
			if !t.materialized[key] {
				continue
			}
			lbl := t.edgeLabel[key]
			for j, row := range rows {
				if row[i].IsNull() {
					continue
				}
				av, ok := t.attrVertex[row[i].Key()]
				if !ok {
					return nil, codec.ErrCorrupt
				}
				t.G.AddUndirectedEdge(verts[j], av, lbl)
			}
		}
	}
	t.G.Freeze()

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
	if uint64(t.G.NumVertices()) != numVerts {
		return nil, codec.ErrCorrupt
	}
	if uint64(t.G.NumEdges()) != numEdges {
		// The re-derived edge set disagrees with the snapshotted count:
		// the image is internally inconsistent.
		return nil, codec.ErrCorrupt
	}
	return t, nil
}
