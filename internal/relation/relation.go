package relation

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Tuple is one row of a relation.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation t ++ o as a fresh tuple.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Size returns the approximate byte footprint of the tuple.
func (t Tuple) Size() int {
	n := 0
	for _, v := range t {
		n += v.Size()
	}
	return n
}

// key renders a canonical string for multiset comparison and hashing.
func (t Tuple) key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteByte(byte(v.Kind) + '0')
		writeKeyText(&b, v)
	}
	return b.String()
}

// writeKeyText writes v's text into a row key. A string is prefixed by
// its length, so a separator byte inside it cannot make two different
// rows render alike.
func writeKeyText(b *strings.Builder, v Value) {
	if v.Kind == KindString {
		b.WriteString(strconv.Itoa(len(v.S)))
		b.WriteByte(':')
	}
	b.WriteString(v.String())
}

// Relation is a named multiset of tuples conforming to a schema.
type Relation struct {
	Name   string
	Schema *Schema
	Tuples []Tuple
	// memo is a value another package derived from Tuples (Memo).
	memo atomic.Value
}

// Memo returns the value last stored with SwapMemo, or nil. It lets a
// package attach what it derives from a relation's tuples — package
// sql's IN-probe set — so that it lives and dies with the relation. A
// memo describes Tuples as they were when it was stored: a relation
// whose tuples change must not carry one, and Catalog.Clone drops it.
func (r *Relation) Memo() any { return r.memo.Load() }

// SwapMemo stores next as the memo if the memo is still old (nil for
// none) and reports whether it did. Every memo of a relation must have
// the same concrete type, and next must not be nil.
func (r *Relation) SwapMemo(old, next any) bool { return r.memo.CompareAndSwap(old, next) }

// New creates an empty relation.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Append adds a tuple after checking arity.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.Name, len(t), r.Schema.Len())
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append that panics on arity mismatch.
func (r *Relation) MustAppend(vals ...Value) {
	if err := r.Append(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.Tuples) }

// ByteSize returns the approximate data footprint of the relation.
func (r *Relation) ByteSize() int {
	n := 0
	for _, t := range r.Tuples {
		n += t.Size()
	}
	return n
}

// SortedKeys returns canonical row keys in sorted order; used by
// EqualMultiset and deterministic output.
func (r *Relation) SortedKeys() []string {
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.key()
	}
	sort.Strings(keys)
	return keys
}

// EqualMultiset reports whether two relations hold the same multiset of
// tuples (schemas are compared by arity only; names may differ between
// engines).
func EqualMultiset(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	ka, kb := a.SortedKeys(), b.SortedKeys()
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// nonFloatKey renders a canonical row key with float slots wildcarded,
// used to bucket rows for tolerance-based multiset matching.
func (t Tuple) nonFloatKey() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		if v.Kind == KindFloat {
			b.WriteByte('F')
			continue
		}
		b.WriteByte(byte(v.Kind) + '0')
		writeKeyText(&b, v)
	}
	return b.String()
}

// approxEqualRow compares tuples with relative float tolerance.
func approxEqualRow(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind == KindFloat && b[i].Kind == KindFloat {
			x, y := a[i].F, b[i].F
			diff := x - y
			if diff < 0 {
				diff = -diff
			}
			scale := 1.0
			if ax := math.Abs(x); ax > scale {
				scale = ax
			}
			if ay := math.Abs(y); ay > scale {
				scale = ay
			}
			if diff > 1e-6*scale {
				return false
			}
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EqualMultisetFuzzy is EqualMultiset with relative float tolerance, for
// comparing engines whose aggregation (summation) order differs.
func EqualMultisetFuzzy(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	buckets := map[string][]Tuple{}
	for _, t := range b.Tuples {
		k := t.nonFloatKey()
		buckets[k] = append(buckets[k], t)
	}
	for _, t := range a.Tuples {
		k := t.nonFloatKey()
		cand := buckets[k]
		found := -1
		for i, c := range cand {
			if approxEqualRow(t, c) {
				found = i
				break
			}
		}
		if found < 0 {
			return false
		}
		cand[found] = cand[len(cand)-1]
		buckets[k] = cand[:len(cand)-1]
	}
	return true
}

// DiffMultiset returns up to max rows present in a but not b and vice
// versa, for test failure messages.
func DiffMultiset(a, b *Relation, max int) (onlyA, onlyB []string) {
	count := map[string]int{}
	for _, t := range a.Tuples {
		count[t.key()]++
	}
	for _, t := range b.Tuples {
		count[t.key()]--
	}
	for k, c := range count {
		for ; c > 0 && len(onlyA) < max; c-- {
			onlyA = append(onlyA, k)
		}
		for ; c < 0 && len(onlyB) < max; c++ {
			onlyB = append(onlyB, k)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB
}

// String renders the relation as a small table (capped at 20 rows).
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d rows]\n", r.Name, r.Schema, len(r.Tuples))
	for i, t := range r.Tuples {
		if i == 20 {
			fmt.Fprintf(&b, "  ... (%d more)\n", len(r.Tuples)-20)
			break
		}
		b.WriteString("  ")
		for j, v := range t {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
