// Package relation implements the relational substrate of the TAG-join
// reproduction: typed values, schemas, relations, catalogs and CSV I/O.
//
// Values are small structs (no interface boxing). A value's Ident, its
// join-key identity, is comparable: join and aggregation hash tables and
// the TAG attribute vertices all key on it.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the value domains supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate // days since 1970-01-01, stored in I
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single typed datum. The zero Value is NULL.
//
// Exactly one payload field is meaningful for a given kind; constructors
// zero the others so that Value is safely comparable with == and usable as
// a map key.
type Value struct {
	Kind Kind
	I    int64 // KindInt, KindDate (days since epoch), KindBool (0/1)
	F    float64
	S    string
}

// Null is the NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// Date returns a date value holding days since 1970-01-01.
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }

// DateOf converts a calendar date to a Value.
func DateOf(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Date(t.Unix() / 86400)
}

// ParseDate parses "YYYY-MM-DD" into a date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("relation: bad date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsBool reports the truth value of v; NULL and non-bool values are false.
func (v Value) AsBool() bool { return v.Kind == KindBool && v.I != 0 }

// AsFloat converts numeric values to float64 for arithmetic.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return 0
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	}
	return 0
}

// String renders the value in a stable, human-readable form.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	}
	return "?"
}

// numericKind reports whether k participates in numeric comparison.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindDate || k == KindBool
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything. Numeric kinds compare by value across
// int/float/date, with NaN above every number and equal to NaN, as in
// PostgreSQL, so the order is total; other cross-kind comparisons
// order by kind.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(v.Kind) && numericKind(o.Kind) {
		if v.Kind == o.Kind && v.Kind != KindFloat {
			switch {
			case v.I < o.I:
				return -1
			case v.I > o.I:
				return 1
			}
			return 0
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		case a == b || (a != a && b != b):
			return 0
		case a != a:
			return 1
		}
		return -1
	}
	if v.Kind != o.Kind {
		switch {
		case v.Kind < o.Kind:
			return -1
		default:
			return 1
		}
	}
	// Same non-numeric kind: strings.
	switch {
	case v.S < o.S:
		return -1
	case v.S > o.S:
		return 1
	}
	return 0
}

// Equal reports SQL equality (NULL equals nothing, including NULL).
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	return v.Compare(o) == 0
}

// Key canonicalizes v for use as a join/group key: integral floats fold
// into ints so that 2 and 2.0 land on the same attribute vertex, matching
// the TAG model's one-vertex-per-active-domain-value rule. It is the
// value of v's Ident, so every NaN keys as one NaN.
func (v Value) Key() Value { return v.Ident().Value() }

// Ident is the join-key identity of a value, the one rule by which
// every layer decides that two values are the same key: they share an
// attribute vertex (§3), join, group, deduplicate and meet in a semijoin
// set exactly when their Idents are ==. An integral FLOAT (in int64's
// range) and a BOOL are their INT, a DATE is never an INT, and every
// NaN is one key. SQL comparison (Compare, Equal) is another rule.
type Ident struct {
	Kind Kind
	I    int64  // INT, DATE: the value; FLOAT: its bits, one pattern for every NaN
	S    string // STRING: the value
}

// Ident returns v's join-key identity.
func (v Value) Ident() Ident {
	switch v.Kind {
	case KindFloat:
		if t := math.Trunc(v.F); t == v.F && t >= -(1<<63) && t < 1<<63 {
			return Ident{Kind: KindInt, I: int64(t)}
		}
		if v.F != v.F {
			v.F = math.NaN() // one bit pattern for every NaN
		}
		return Ident{Kind: KindFloat, I: int64(math.Float64bits(v.F))}
	case KindBool:
		return Ident{Kind: KindInt, I: v.I}
	}
	return Ident{Kind: v.Kind, I: v.I, S: v.S}
}

// Value returns the canonical value of the identity: v.Key() for every
// v with that identity, so the NaN key's value is a NaN.
func (id Ident) Value() Value {
	if id.Kind == KindFloat {
		return Float(math.Float64frombits(uint64(id.I)))
	}
	return Value{Kind: id.Kind, I: id.I, S: id.S}
}

// Size returns the approximate in-memory footprint of the value in bytes,
// used by load-size and message-traffic accounting.
func (v Value) Size() int {
	return 17 + len(v.S) // kind byte + two 8-byte payloads + string bytes
}

// Add returns v + o with numeric promotion; NULL propagates.
func Add(v, o Value) Value { return arith(v, o, '+') }

// Sub returns v - o with numeric promotion; NULL propagates.
func Sub(v, o Value) Value { return arith(v, o, '-') }

// Mul returns v * o with numeric promotion; NULL propagates.
func Mul(v, o Value) Value { return arith(v, o, '*') }

// Div returns v / o with numeric promotion; NULL propagates and division
// by zero yields NULL.
func Div(v, o Value) Value { return arith(v, o, '/') }

func arith(v, o Value, op byte) Value {
	if v.IsNull() || o.IsNull() {
		return Null
	}
	if v.Kind == KindInt && o.Kind == KindInt && op != '/' {
		switch op {
		case '+':
			return Int(v.I + o.I)
		case '-':
			return Int(v.I - o.I)
		case '*':
			return Int(v.I * o.I)
		}
	}
	if v.Kind == KindDate && o.Kind == KindInt {
		switch op {
		case '+':
			return Date(v.I + o.I)
		case '-':
			return Date(v.I - o.I)
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch op {
	case '+':
		return Float(a + b)
	case '-':
		return Float(a - b)
	case '*':
		return Float(a * b)
	case '/':
		if b == 0 {
			return Null
		}
		return Float(a / b)
	}
	return Null
}
