package relation

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

func sampleRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("nation", MustSchema(Col("nationkey", KindInt), Col("name", KindString)))
	r.MustAppend(Int(1), Str("USA"))
	r.MustAppend(Int(2), Str("FRANCE"))
	r.MustAppend(Int(3), Str("PERU"))
	return r
}

func TestSchemaLookup(t *testing.T) {
	s := MustSchema(Col("A", KindInt), Col("b", KindString))
	if s.Index("a") != 0 || s.Index("B") != 1 {
		t.Error("case-insensitive index lookup failed")
	}
	if s.Index("missing") != -1 {
		t.Error("missing column should return -1")
	}
	if _, err := NewSchema(Col("x", KindInt), Col("X", KindInt)); err == nil {
		t.Error("duplicate columns should error")
	}
	if got := s.String(); got != "(A INT, b STRING)" {
		t.Errorf("String() = %q", got)
	}
}

func TestRelationAppendArity(t *testing.T) {
	r := sampleRelation(t)
	if err := r.Append(Tuple{Int(9)}); err == nil {
		t.Error("arity mismatch should error")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestEqualMultiset(t *testing.T) {
	a := sampleRelation(t)
	b := New("other", a.Schema)
	// Same tuples in different order.
	b.MustAppend(Int(3), Str("PERU"))
	b.MustAppend(Int(1), Str("USA"))
	b.MustAppend(Int(2), Str("FRANCE"))
	if !EqualMultiset(a, b) {
		t.Error("order should not matter")
	}
	b.MustAppend(Int(2), Str("FRANCE"))
	if EqualMultiset(a, b) {
		t.Error("multiplicity should matter")
	}
	onlyA, onlyB := DiffMultiset(a, b, 5)
	if len(onlyA) != 0 || len(onlyB) != 1 {
		t.Errorf("diff = %v / %v", onlyA, onlyB)
	}
}

func TestTupleConcatClone(t *testing.T) {
	a := Tuple{Int(1)}
	b := Tuple{Str("x"), Int(2)}
	c := a.Concat(b)
	if len(c) != 3 || c[1] != Str("x") {
		t.Errorf("concat = %v", c)
	}
	cl := a.Clone()
	cl[0] = Int(99)
	if a[0] != Int(1) {
		t.Error("clone must not alias")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	c.MustAdd(sampleRelation(t))
	if c.Get("NATION") == nil {
		t.Error("case-insensitive get failed")
	}
	if err := c.Add(sampleRelation(t)); err == nil {
		t.Error("duplicate add should error")
	}
	c.SetPrimaryKey("nation", "nationkey")
	c.AddForeignKey(ForeignKey{Table: "customer", Column: "nationkey", RefTable: "nation", RefColumn: "nationkey"})
	if !c.IsPKFKJoin("customer", "nationkey", "nation", "nationkey") {
		t.Error("declared FK should be detected")
	}
	if !c.IsPKFKJoin("nation", "nationkey", "customer", "nationkey") {
		t.Error("PK side should be detected symmetrically")
	}
	if c.IsPKFKJoin("a", "x", "b", "y") {
		t.Error("unknown join should not be PK-FK")
	}
	if !strings.Contains(c.String(), "nation") {
		t.Error("String should mention relation")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := New("t", MustSchema(
		Col("i", KindInt), Col("f", KindFloat), Col("s", KindString),
		Col("b", KindBool), Col("d", KindDate)))
	r.MustAppend(Int(1), Float(1.5), Str("alpha, \"beta\""), Bool(true), DateOf(2020, 1, 2))
	r.MustAppend(Null, Null, Null, Null, Null)

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// A CSV reader gets the header and every cell's text back, quoting
	// undone; NULL is the empty field.
	back, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"i", "f", "s", "b", "d"},
		{"1", "1.5", `alpha, "beta"`, "true", "2020-01-02"},
		{"", "", "", "", ""},
	}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("round trip = %q, want %q", back, want)
	}
}
