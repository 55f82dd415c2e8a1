package sql

import "repro/internal/relation"

// inSet is the hash probe of one IN-subquery result, kept as the
// result's memo (relation.Relation.Memo) so it lives and dies with it.
// The first probe of a result builds its set. The set holds the first column's non-NULL values only when they
// all have one kind among INT, DATE and STRING, and it answers only
// probes of that kind: Compare equates INT, DATE and FLOAT through
// AsFloat, and a NaN compares equal to every number, so any other probe
// is scanned.
type inSet struct {
	hashable bool
	kind     relation.Kind // the values' kind; KindNull when there are none
	ints     map[int64]struct{}
	strs     map[string]struct{}
	sawNull  bool
}

// inRows evaluates v IN rows (NOT IN when not) for a non-NULL v under
// three-valued logic: TRUE on a match, else NULL if rows hold a NULL,
// else FALSE (negated for NOT IN).
func inRows(rows *relation.Relation, v relation.Value, not bool) relation.Value {
	found, sawNull := false, false
	if s := probeSet(rows); s.hashable && (s.kind == relation.KindNull || s.kind == v.Kind) {
		if v.Kind == relation.KindString {
			_, found = s.strs[v.S]
		} else {
			_, found = s.ints[v.I]
		}
		sawNull = s.sawNull
	} else {
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
	switch {
	case found:
		return relation.Bool(!not)
	case sawNull:
		return relation.Null
	}
	return relation.Bool(not)
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
	s := &inSet{hashable: true}
	for _, t := range rows.Tuples {
		v := t[0]
		switch {
		case v.IsNull():
			s.sawNull = true
			continue
		case s.kind == relation.KindNull:
			s.kind = v.Kind
		case v.Kind != s.kind:
			return &inSet{}
		}
		switch v.Kind {
		case relation.KindInt, relation.KindDate:
			if s.ints == nil {
				s.ints = make(map[int64]struct{}, len(rows.Tuples))
			}
			s.ints[v.I] = struct{}{}
		case relation.KindString:
			if s.strs == nil {
				s.strs = make(map[string]struct{}, len(rows.Tuples))
			}
			s.strs[v.S] = struct{}{}
		default:
			return &inSet{}
		}
	}
	return s
}
