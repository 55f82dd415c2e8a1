package tag

import (
	"maps"

	"repro/internal/bsp"
)

// Clone returns a copy-on-write snapshot of a frozen TAG graph, suitable
// for building the next graph generation while readers keep querying the
// receiver. The underlying bsp.Graph is cloned copy-on-write (see
// bsp.Graph.Clone), the catalog snapshot shares schemas and tuples, and
// the lookup maps are copied shallowly: their slice values are capped at
// the snapshot length so mutation in the clone always reallocates
// instead of writing into memory the original can see.
//
// The receiver must stay frozen while the clone is alive; incremental
// maintenance (InsertBatch/DeleteBatch) may then run freely on the
// clone.
func (t *Graph) Clone() *Graph {
	nt := &Graph{
		G:            t.G.Clone(),
		Catalog:      t.Catalog.Clone(),
		Aggregator:   t.Aggregator,
		policy:       t.policy,
		attrs:        t.attrs.clone(),
		tupleVerts:   make(map[string][]bsp.VertexID, len(t.tupleVerts)),
		tupleLabel:   t.tupleLabel, // never mutated after Build
		dead:         t.dead,       // never mutated after Build
		attrByEdge:   make(map[bsp.LabelID][]bsp.VertexID, len(t.attrByEdge)),
		edgeLabel:    t.edgeLabel,    // never mutated after Build
		materialized: t.materialized, // never mutated after Build
		attrKindLbl:  maps.Clone(t.attrKindLbl),

		// Arm delta tracking: everything the clone creates sits at
		// vertex IDs >= this boundary, which is what lets incremental
		// query maintenance split any relation into its old and delta
		// tuples by a single ID comparison.
		deltaBase:    t.G.NumVertices(),
		deltaInserts: make(map[string]int),
		deltaDeletes: make(map[string]int),
	}
	for k, v := range t.tupleVerts {
		nt.tupleVerts[k] = v[:len(v):len(v)]
	}
	for k, v := range t.attrByEdge {
		nt.attrByEdge[k] = v[:len(v):len(v)]
	}
	return nt
}
