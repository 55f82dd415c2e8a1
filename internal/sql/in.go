package sql

import "repro/internal/relation"

// inSet is the hash probe of one IN-subquery result, kept as the
// result's memo (relation.Relation.Memo) so it lives and dies with it,
// or of one IN list of constants, built when the list is compiled. The
// first probe of a result builds its set. The set holds the non-NULL
// values only when they all have one kind among INT, DATE and STRING,
// where SQL equality is key identity (relation.Ident), and it answers
// only probes of that kind: Compare equates INT, DATE and FLOAT through
// AsFloat, so any other probe is scanned.
type inSet struct {
	hashable bool
	kind     relation.Kind // the values' kind; KindNull when there are none
	ids      map[relation.Ident]struct{}
	sawNull  bool
}

// inRows evaluates v IN rows (NOT IN when not) for a non-NULL v under
// three-valued logic: TRUE on a match, else NULL if rows hold a NULL,
// else FALSE (negated for NOT IN).
func inRows(rows *relation.Relation, v relation.Value, not bool) relation.Value {
	found, sawNull, ok := probeSet(rows).probe(v)
	if !ok {
		for _, t := range rows.Tuples {
			if t[0].IsNull() {
				sawNull = true
				continue
			}
			if v.Equal(t[0]) {
				found = true
				break
			}
		}
	}
	return inAnswer(found, sawNull, not)
}

// inAnswer is the value of IN (NOT IN when not) given whether the probe
// matched an item and whether the items hold a NULL.
func inAnswer(found, sawNull, not bool) relation.Value {
	switch {
	case found:
		return relation.Bool(!not)
	case sawNull:
		return relation.Null
	}
	return relation.Bool(not)
}

// probe looks the non-NULL v up in the set: whether it matched and
// whether the values hold a NULL, or ok false if the set cannot answer v
// and the values must be scanned.
func (s *inSet) probe(v relation.Value) (found, sawNull, ok bool) {
	if !s.hashable || (s.kind != relation.KindNull && s.kind != v.Kind) {
		return false, false, false
	}
	_, found = s.ids[v.Ident()]
	return found, s.sawNull, true
}

// probeSet returns rows' set, building it on the result's first probe.
func probeSet(rows *relation.Relation) *inSet {
	if s, _ := rows.Memo().(*inSet); s != nil {
		return s
	}
	s := buildInSet(rows)
	if !rows.SwapMemo(nil, s) {
		s, _ = rows.Memo().(*inSet) // another goroutine built it first
	}
	return s
}

// buildInSet hashes the first column of rows.
func buildInSet(rows *relation.Relation) *inSet {
	return newInSet(len(rows.Tuples), func(i int) relation.Value { return rows.Tuples[i][0] })
}

// newInSet hashes the n values at(0), ..., at(n-1).
func newInSet(n int, at func(int) relation.Value) *inSet {
	s := &inSet{hashable: true}
	for i := 0; i < n; i++ {
		v := at(i)
		switch {
		case v.IsNull():
			s.sawNull = true
			continue
		case v.Kind != relation.KindInt && v.Kind != relation.KindDate && v.Kind != relation.KindString:
			return &inSet{}
		case s.kind == relation.KindNull:
			s.kind = v.Kind
			s.ids = make(map[relation.Ident]struct{}, n)
		case v.Kind != s.kind:
			return &inSet{}
		}
		s.ids[v.Ident()] = struct{}{}
	}
	return s
}
