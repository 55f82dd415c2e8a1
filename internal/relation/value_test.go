package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("hello"), KindString, "hello"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{Null, KindNull, "NULL"},
		{DateOf(1995, time.March, 15), KindDate, "1995-03-15"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestParseDateRoundTrip(t *testing.T) {
	v, err := ParseDate("2021-06-20")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "2021-06-20" {
		t.Fatalf("round trip got %q", v.String())
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Fatal("expected error for bad date")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(2.0), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
		{Date(10), Date(20), -1},
		{Date(10), Int(10), 0}, // numeric cross-kind
		{Bool(false), Bool(true), -1},
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Float(math.Inf(1)), 1},
		{Int(5), Float(math.NaN()), -1},
		{Float(math.NaN()), Date(10), 1},
		{Null, Float(math.NaN()), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Null.Equal(Null) {
		t.Error("NULL must not equal NULL")
	}
	if Null.Equal(Int(0)) || Int(0).Equal(Null) {
		t.Error("NULL must not equal 0")
	}
	if !Int(5).Equal(Int(5)) {
		t.Error("5 should equal 5")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	if Float(2.0).Key() != Int(2) {
		t.Error("integral float should fold to int key")
	}
	if Float(2.5).Key() != Float(2.5) {
		t.Error("fractional float should keep its identity")
	}
	if Bool(true).Key() != Int(1) {
		t.Error("bool should fold to int key")
	}
	if Str("x").Key() != Str("x") {
		t.Error("string key should be stable")
	}
}

// TestIdentRule pins the join-key identity: which values are one key,
// which are not, that every NaN is one key whose value is a NaN, and
// that the identity of an identity's value is the identity itself.
func TestIdentRule(t *testing.T) {
	nan, otherNaN := Float(math.NaN()), Float(math.Float64frombits(0xfff0000000000123))
	for _, pair := range [][2]Value{
		{Float(2), Int(2)}, {Bool(true), Int(1)}, {Float(math.Copysign(0, -1)), Int(0)},
		{nan, otherNaN}, {Float(-(1 << 63)), Int(math.MinInt64)}, {Str("x"), Str("x")},
	} {
		if pair[0].Ident() != pair[1].Ident() {
			t.Errorf("%v %v and %v %v are two keys, want one", pair[0].Kind, pair[0], pair[1].Kind, pair[1])
		}
	}
	for _, pair := range [][2]Value{
		{Date(5), Int(5)}, {Float(2.5), Int(2)}, {nan, Int(0)}, {nan, Float(0)},
		{Float(1e19), Float(-1e19)}, {Float(1e19), Int(math.MinInt64)}, {Float(math.Inf(1)), Float(math.Inf(-1))},
		{Null, Int(0)}, {Str(""), Null},
	} {
		if pair[0].Ident() == pair[1].Ident() {
			t.Errorf("%v %v and %v %v are one key, want two", pair[0].Kind, pair[0], pair[1].Kind, pair[1])
		}
	}
	if k := otherNaN.Key(); k.Kind != KindFloat || !math.IsNaN(k.F) {
		t.Errorf("NaN's key is %v %v, want a FLOAT NaN", k.Kind, k)
	}
	for _, v := range []Value{nan, otherNaN, Float(2), Float(2.5), Float(1e19), Bool(false), Date(3), Str("s"), Null} {
		if id := v.Ident(); id.Value().Ident() != id {
			t.Errorf("%v %v: identity of its identity's value is %+v, want %+v", v.Kind, v, id.Value().Ident(), id)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		got, want Value
	}{
		{Add(Int(2), Int(3)), Int(5)},
		{Sub(Int(2), Int(3)), Int(-1)},
		{Mul(Int(4), Int(3)), Int(12)},
		{Div(Int(7), Int(2)), Float(3.5)},
		{Add(Float(1.5), Int(1)), Float(2.5)},
		{Add(Date(10), Int(5)), Date(15)},
		{Sub(Date(10), Int(5)), Date(5)},
		{Div(Int(1), Int(0)), Null},
		{Add(Null, Int(1)), Null},
		{Mul(Int(1), Null), Null},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %v, want %v", i, c.got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		va, vb, vc := Float(a), Float(b), Float(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareIsTotalWithNaN checks that Compare is a total order over
// values that include NaN (two bit patterns), the infinities, NULL and
// the numeric kinds: antisymmetric and transitive on every pair and
// triple, with NaN above every number and equal to NaN, so a sort by
// Compare puts the values in one order whatever order they start in.
func TestCompareIsTotalWithNaN(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	vals := []Value{Float(math.NaN()), Int(3), Float(math.Inf(1)), Null, Float(nan2),
		Float(-2.5), Float(math.Inf(-1)), Date(4), Int(-7), Bool(true)}
	for _, a := range vals {
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare(%v, %v) = %d, Compare(%v, %v) = %d", a, b, a.Compare(b), b, a, b.Compare(a))
			}
			for _, c := range vals {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("%v <= %v <= %v but Compare(%v, %v) = %d", a, b, c, a, c, a.Compare(c))
				}
			}
		}
	}
	want := slices.Clone(vals)
	slices.SortStableFunc(want, Value.Compare)
	if last := want[len(want)-2:]; !math.IsNaN(last[0].F) || !math.IsNaN(last[1].F) {
		t.Errorf("sorted %v: NaN is not last", want)
	}
	rng := rand.New(rand.NewSource(1))
	for range 50 {
		got := slices.Clone(vals)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		slices.SortFunc(got, Value.Compare)
		for i := range got {
			if got[i].Compare(want[i]) != 0 {
				t.Fatalf("sorted %v, want %v", got, want)
			}
		}
	}
}

func TestKeyEquivalenceProperty(t *testing.T) {
	// Values with equal keys must compare equal (join soundness for the
	// attribute-vertex dedup rule).
	f := func(n int32) bool {
		// int32 range is exactly representable in float64.
		return Int(int64(n)).Key() == Float(float64(n)).Key()
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestValueSize(t *testing.T) {
	if Int(1).Size() != 17 {
		t.Errorf("int size = %d", Int(1).Size())
	}
	if Str("abcd").Size() != 21 {
		t.Errorf("str size = %d", Str("abcd").Size())
	}
}
