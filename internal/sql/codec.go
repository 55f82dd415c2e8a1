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
	b = codec.AppendString(b, a.fn.Name)
	var flags byte
	if a.fn.Star {
		flags |= 1
	}
	if a.distinct != nil {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, a.count)
	b = a.sum.appendBinary(b)
	var err error
	for _, v := range [...]relation.Value{a.min, a.max} {
		if b, err = relation.AppendValue(b, v); err != nil {
			return nil, err
		}
	}
	if a.distinct != nil {
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

// DecodeAggregator decodes one AppendBinary encoding from d. The
// rebuilt accumulator merges and finalizes exactly like the original;
// its FuncCall is synthesized from the encoded name and flags.
func DecodeAggregator(d *codec.Decoder) (*Aggregator, error) {
	name, err := d.Str()
	if err != nil {
		return nil, err
	}
	flags, err := d.Byte()
	if err != nil {
		return nil, err
	}
	a := NewAggregator(&FuncCall{Name: name, Star: flags&1 != 0, Distinct: flags&2 != 0})
	if a.count, err = d.Varint(); err != nil {
		return nil, err
	}
	if err := a.sum.decode(d); err != nil {
		return nil, err
	}
	for _, dst := range [...]*relation.Value{&a.min, &a.max} {
		if *dst, err = relation.DecodeValue(d); err != nil {
			return nil, err
		}
	}
	if a.distinct != nil {
		n, err := d.Length()
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v, err := relation.DecodeValue(d)
			if err != nil {
				return nil, err
			}
			a.distinct[v.Ident()] = struct{}{}
		}
	}
	return a, nil
}
