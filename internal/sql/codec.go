package sql

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/codec"
	"repro/internal/relation"
)

// This file is the binary (de)serialization of partial aggregation
// state, so a distributed engine can ship sql.Aggregator accumulators
// between processes exactly as the simulated message plane ships them
// between partitions. The encoding is self-describing — it carries the
// function name and flags — because the receiving process rebuilds the
// accumulator without access to the sender's *FuncCall. It is also
// canonical: the bytes depend only on the observations, never on the
// merge tree that combined them (sum.go writes the exact sum as its
// greedy expansion), so byte-priced exchanges are identical however the
// partials were grouped.

// AppendBinary appends a's complete partial state: function name, a
// flags byte (star, distinct), the observation count, the exact sum,
// the min/max values, and (for DISTINCT) the deferred keys in a
// canonical order, each written as its identity's value.
func (a *Aggregator) AppendBinary(b []byte) ([]byte, error) {
	b = append(codec.AppendString(b, a.fn.Name), a.flags)
	b = binary.AppendVarint(b, a.count)
	b = a.sum.appendBinary(b)
	var err error
	for _, v := range [...]relation.Value{a.min, a.max} {
		if b, err = relation.AppendValue(b, v); err != nil {
			return nil, err
		}
	}
	if a.flags&aggDistinct != 0 {
		ids := make([]relation.Ident, 0, len(a.distinct))
		for id := range a.distinct {
			ids = append(ids, id)
		}
		slices.SortFunc(ids, func(x, y relation.Ident) int {
			return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.I, y.I), cmp.Compare(x.S, y.S))
		})
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			if b, err = relation.AppendValue(b, id.Value()); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// decodedFuncs holds one read-only FuncCall per aggregate name and
// flags byte, so a decoded accumulator of a known function allocates
// none; only a name no aggregate has gets its own.
var decodedFuncs = func() (fns [aggMax + 1][aggStar | aggDistinct + 1]*FuncCall) {
	for name, op := range aggOps {
		for flags := range fns[op] {
			fns[op][flags] = &FuncCall{Name: name, Star: flags&aggStar != 0, Distinct: flags&aggDistinct != 0}
		}
	}
	return fns
}()

// DecodeAggregator decodes one AppendBinary encoding from d. The
// rebuilt accumulator merges and finalizes exactly like the original;
// its FuncCall is the shared one of the encoded name and flags (see
// decodedFuncs), never to be modified.
func DecodeAggregator(d *codec.Decoder) (Aggregator, error) {
	var a Aggregator
	name, err := d.Str()
	if err != nil {
		return a, err
	}
	flags, err := d.Byte()
	if err != nil {
		return a, err
	}
	a.op, a.flags = aggOps[name], flags&(aggStar|aggDistinct)
	if a.fn = decodedFuncs[a.op][a.flags]; a.op == aggOther {
		a.fn = &FuncCall{Name: name, Star: a.flags&aggStar != 0, Distinct: a.flags&aggDistinct != 0}
	}
	if a.count, err = d.Varint(); err != nil {
		return a, err
	}
	if err := a.sum.decode(d); err != nil {
		return a, err
	}
	for _, dst := range [...]*relation.Value{&a.min, &a.max} {
		if *dst, err = relation.DecodeValue(d); err != nil {
			return a, err
		}
	}
	if a.flags&aggDistinct != 0 {
		n, err := d.Length()
		if err != nil {
			return a, err
		}
		for i := 0; i < n; i++ {
			v, err := relation.DecodeValue(d)
			if err != nil {
				return a, err
			}
			if a.distinct == nil {
				a.distinct = make(map[relation.Ident]struct{})
			}
			a.distinct[v.Ident()] = struct{}{}
		}
	}
	return a, nil
}
