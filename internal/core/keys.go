package core

import (
	"hash/maphash"
	"math"
	"math/bits"

	"repro/internal/relation"
)

// Keys. Joins, groups, DISTINCT, decorrelated lookups and the
// correlated-subquery memo all ask one question of a tuple of values:
// which earlier tuple has the same key? A key value is keyValue(v):
// Value.Key() (FLOAT 2.0 is INT 2, a BOOL is its INT), with every NaN
// folded onto nanKey so that NaNs meet each other. A one-value key is
// that comparable value itself; a wider key is a hash of its canonical
// values, and a hash hit is confirmed value by value, so keys are
// injective whatever bytes a string holds.

// nanKey is the canonical key of every NaN: a FLOAT value no real float
// carries (a float value keeps I zero).
var nanKey = relation.Value{Kind: relation.KindFloat, I: 1}

// keyValue returns v's canonical key value.
func keyValue(v relation.Value) relation.Value {
	k := v.Key()
	if k.Kind == relation.KindFloat && k.F != k.F {
		return nanKey
	}
	return k
}

// valueKey is the map key of a tuple of values: the canonical value of
// a one-value tuple, or the hash of a wider one's canonical values.
type valueKey struct {
	v relation.Value
	h uint64
}

var keySeed = maphash.MakeSeed()

// mixKey folds one canonical value into a running tuple hash.
func mixKey(h uint64, k relation.Value) uint64 {
	x := uint64(k.I) ^ math.Float64bits(k.F) ^ uint64(k.Kind)<<56
	if k.Kind == relation.KindString {
		x ^= maphash.String(keySeed, k.S)
	}
	hi, lo := bits.Mul64(h^x, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// tupleKey returns the map key of the tuple vals.
func tupleKey(vals []relation.Value) valueKey {
	if len(vals) == 1 {
		return valueKey{v: keyValue(vals[0])}
	}
	h := uint64(len(vals))
	for _, v := range vals {
		h = mixKey(h, keyValue(v))
	}
	return valueKey{h: h}
}

// slotsKey returns the map key of the tuple row[slots[0]], row[slots[1]], ...
func slotsKey(row []relation.Value, slots []int) valueKey {
	if len(slots) == 1 {
		return valueKey{v: keyValue(row[slots[0]])}
	}
	h := uint64(len(slots))
	for _, s := range slots {
		h = mixKey(h, keyValue(row[s]))
	}
	return valueKey{h: h}
}

// tuplesEqual reports whether two tuples have the same key.
func tuplesEqual(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if keyValue(a[i]) != keyValue(b[i]) {
			return false
		}
	}
	return true
}

// slotsEqual reports whether a's values at as and b's at bs have the
// same key.
func slotsEqual(a []relation.Value, as []int, b []relation.Value, bs []int) bool {
	for i := range as {
		if keyValue(a[as[i]]) != keyValue(b[bs[i]]) {
			return false
		}
	}
	return true
}

// linearKeys is how many entries a keyIndex scans before it hashes.
const linearKeys = 8

// keyIndex finds which of the entries 0..n-1 of a growing list has a
// given key. Up to linearKeys entries it compares keys directly and
// holds nothing; past that, head maps a valueKey to its newest entry
// and next chains each entry to the previous one with that valueKey.
// Distinct wide keys can share a hash, so a lookup confirms every
// chained candidate with tuplesEqual.
type keyIndex struct {
	head map[valueKey]int32
	next []int32
}

// find returns the entry whose key (keyAt(i)) equals key, or -1. n is
// the current number of entries.
func (x *keyIndex) find(n int, keyAt func(int) []relation.Value, key []relation.Value) int {
	if x.head == nil && n <= linearKeys {
		for i := 0; i < n; i++ {
			if tuplesEqual(keyAt(i), key) {
				return i
			}
		}
		return -1
	}
	x.index(n, keyAt)
	i, ok := x.head[tupleKey(key)]
	if !ok {
		return -1
	}
	for ; i >= 0; i = x.next[i] {
		if tuplesEqual(keyAt(int(i)), key) {
			return int(i)
		}
	}
	return -1
}

// reset empties the index for a new list.
func (x *keyIndex) reset() { x.head, x.next = nil, x.next[:0] }

// index brings the hashed index up to date with entries 0..n-1.
func (x *keyIndex) index(n int, keyAt func(int) []relation.Value) {
	if x.head == nil {
		x.head = make(map[valueKey]int32, n)
	}
	for i := len(x.next); i < n; i++ {
		k := tupleKey(keyAt(i))
		prev, ok := x.head[k]
		if !ok {
			prev = -1
		}
		x.next = append(x.next, prev)
		x.head[k] = int32(i)
	}
}

// rowBuckets hashes rows on the key of some of their slots, keeping row
// order within a key: head maps a key to its first row and next[i] is
// the row after i in i's chain, or -1. Rows whose keys only share a
// hash share a chain, so a probe confirms candidates with slotsEqual.
type rowBuckets struct {
	head map[valueKey]int32
	next []int32
}

// bucketRows buckets rows on their values at slots, leaving out the rows
// with a NULL there when skipNull is set.
func bucketRows(rows [][]relation.Value, slots []int, skipNull bool) rowBuckets {
	b := rowBuckets{head: make(map[valueKey]int32, len(rows)), next: make([]int32, len(rows))}
rows:
	for i := len(rows) - 1; i >= 0; i-- {
		if skipNull {
			for _, sl := range slots {
				if rows[i][sl].IsNull() {
					continue rows
				}
			}
		}
		k := slotsKey(rows[i], slots)
		if h, ok := b.head[k]; ok {
			b.next[i] = h
		} else {
			b.next[i] = -1
		}
		b.head[k] = int32(i)
	}
	return b
}

// first returns the first bucketed row whose key may equal row's values
// at slots, or -1.
func (b rowBuckets) first(row []relation.Value, slots []int) int32 {
	if i, ok := b.head[slotsKey(row, slots)]; ok {
		return i
	}
	return -1
}
