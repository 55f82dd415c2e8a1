package core

import (
	"slices"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// This file declares the message combiners of the TAG-join vertex
// programs: folds applied by the BSP engine at Send time (per worker)
// and at the shard merge (across workers), so aggregate-heavy
// traversals deliver one message per active vertex instead of one per
// sender. Every combiner here computes what its receiving
// vertex computes over an uncombined inbox — structural folds in the
// same (worker, send) order, aggregate merges exact under any grouping
// — so combined execution is byte-identical in rows and paper-facing
// Stats (cross-checked per TPC-H query by
// TestCombinedMatchesUncombinedTPCH in internal/tpch).

// pgCombiner folds partialGroups bound for the same aggregation target
// (the global aggregator vertex, a per-machine relay, or an attribute
// vertex on the LA path) into one message per destination with
// partialGroups.fold — the merge the receiver would have run on
// arrival, moved to where the messages are produced. Regrouping the
// receiver's fold this way changes no bits: sql.Aggregator merges are
// exact.
type pgCombiner struct{}

// Fold implements bsp.Combiner. The first sender's partials are
// borrowed rather than copied: a partialGroups is sent to exactly one
// destination and never touched by its sender again.
func (pgCombiner) Fold(acc, payload any) any {
	pg := payload.(*partialGroups)
	if acc == nil {
		return pg
	}
	return combineGroups(acc.(*partialGroups), pg)
}

// Merge implements bsp.Combiner.
func (pgCombiner) Merge(acc, other any) any {
	return combineGroups(acc.(*partialGroups), other.(*partialGroups))
}

// combineGroups folds b into a, carrying the logical pre-combine group
// count so receivers account the paper's ComputeOps as if nothing had
// folded.
func combineGroups(a, b *partialGroups) *partialGroups {
	logical := a.logicalGroups() + b.logicalGroups()
	a.fold(b)
	a.logical = logical
	return a
}

// valueBatch is the combined payload of the cycle pre-pass propagation:
// the distinct join-attribute values folded at Send time, in first-send
// order. Receivers dedup per value anyway (cycleWalk's set per hop and
// vertex), so dropping within-superstep duplicates early changes nothing
// they observe — it is the §6 value propagation's natural MIN-style
// fold. The reduction forwards one as the set of one carried class's
// values, holding their keys (a carriedSet).
//
// Members are matched by identity (relation.Ident), so a batch holds one
// value per key. A batch finds a value by comparing until it holds more
// than linearKeys values, and in seen from then on. Only add writes, so
// a built batch can go to many receivers.
type valueBatch struct {
	vals []relation.Value
	seen map[relation.Ident]struct{}
}

// add inserts val and reports whether it was new.
func (b *valueBatch) add(val relation.Value) bool {
	if b.contains(val) {
		return false
	}
	b.vals = append(b.vals, val)
	if b.seen != nil {
		b.seen[val.Ident()] = struct{}{}
	} else if len(b.vals) > linearKeys {
		b.seen = make(map[relation.Ident]struct{}, 2*len(b.vals))
		for _, v := range b.vals {
			b.seen[v.Ident()] = struct{}{}
		}
	}
	return true
}

// contains reports whether val's key is in the batch.
func (b *valueBatch) contains(val relation.Value) bool {
	id := val.Ident()
	if b.seen != nil {
		_, ok := b.seen[id]
		return ok
	}
	return slices.ContainsFunc(b.vals, func(v relation.Value) bool { return v.Ident() == id })
}

// Size prices the batch in bytes (the MessageBytes measure).
func (b *valueBatch) Size() int {
	n := 8
	for _, v := range b.vals {
		n += v.Size()
	}
	return n
}

// insertAt adds the key of vals[pos[0]] unless it is NULL.
func (b *valueBatch) insertAt(vals []relation.Value, pos []int) {
	if pos[0] < len(vals) && !vals[pos[0]].IsNull() {
		b.add(vals[pos[0]].Key())
	}
}

// has reports whether the key of row[slots[0]] is in a batch of keys.
// NULL is in none.
func (b *valueBatch) has(row []relation.Value, slots []int) bool {
	v := row[slots[0]]
	return !v.IsNull() && b.contains(v)
}

func (b *valueBatch) empty() bool { return len(b.vals) == 0 }

// valueCombiner folds cycleMsg payloads into one valueBatch per
// destination, and bare signals (nil payloads, which receivers never
// read) into nil.
type valueCombiner struct{}

// Fold implements bsp.Combiner.
func (valueCombiner) Fold(acc, payload any) any {
	if payload == nil {
		return acc
	}
	val := payload.(cycleMsg).val
	if acc == nil {
		return &valueBatch{vals: append(make([]relation.Value, 0, 4), val)}
	}
	b := acc.(*valueBatch)
	b.add(val)
	return b
}

// Merge implements bsp.Combiner.
func (valueCombiner) Merge(acc, other any) any {
	if other == nil {
		return acc
	}
	a, b := acc.(*valueBatch), other.(*valueBatch)
	for _, v := range b.vals {
		a.add(v)
	}
	return a
}

// eachCycleVal visits the propagated values of one delivered message,
// combined or not, in delivery order.
func eachCycleVal(msg bsp.Message, fn func(relation.Value)) {
	if b, ok := msg.Payload.(*valueBatch); ok {
		for _, v := range b.vals {
			fn(v)
		}
		return
	}
	fn(msg.Payload.(cycleMsg).val)
}

// tableBatch is the combined payload of the collection phase: the union
// of the partial tables sent to one destination, rows in delivery
// order — the same single append pass the receiver runs over a
// multi-message inbox. The first table is borrowed without copying
// (collection multicasts one value table to several parents, so the
// batch copies the rows only when a second table actually arrives —
// mirroring the receiver, which also avoids the copy for a one-message
// inbox).
type tableBatch struct {
	t     *table
	owned bool
}

func (b *tableBatch) union(t *table) {
	if !b.owned {
		u := newTableShared(b.t.header, b.t.index)
		u.rows = append(make([][]relation.Value, 0, len(b.t.rows)+len(t.rows)), b.t.rows...)
		b.t = u
		b.owned = true
	}
	b.t.rows = append(b.t.rows, t.rows...)
}

// tableUnionCombiner folds the collection phase's partial-table
// messages into one tableBatch per destination.
type tableUnionCombiner struct{}

// Fold implements bsp.Combiner.
func (tableUnionCombiner) Fold(acc, payload any) any {
	if acc == nil {
		return &tableBatch{t: payload.(*table)}
	}
	b := acc.(*tableBatch)
	b.union(payload.(*table))
	return b
}

// Merge implements bsp.Combiner.
func (tableUnionCombiner) Merge(acc, other any) any {
	a, b := acc.(*tableBatch), other.(*tableBatch)
	a.union(b.t)
	return a
}
