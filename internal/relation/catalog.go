package relation

import (
	"fmt"
	"sort"
	"strings"
)

// ForeignKey records a PK-FK relationship used by the planner's PK-FK
// detection (§6.1.1 of the paper) and by baseline index construction.
type ForeignKey struct {
	Table, Column       string
	RefTable, RefColumn string
}

// Catalog is a named collection of relations plus key metadata.
type Catalog struct {
	relations map[string]*Relation
	order     []string
	primary   map[string]string // table -> pk column
	foreign   []ForeignKey
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		relations: make(map[string]*Relation),
		primary:   make(map[string]string),
	}
}

// Add registers a relation; the name must be unused.
func (c *Catalog) Add(r *Relation) error {
	key := strings.ToLower(r.Name)
	if _, dup := c.relations[key]; dup {
		return fmt.Errorf("catalog: duplicate relation %q", r.Name)
	}
	c.relations[key] = r
	c.order = append(c.order, key)
	return nil
}

// MustAdd is Add that panics on duplicates.
func (c *Catalog) MustAdd(r *Relation) {
	if err := c.Add(r); err != nil {
		panic(err)
	}
}

// Clone returns a snapshot of the catalog that can be mutated (tuples
// appended or removed) without affecting the receiver. Relation structs
// are copied; schemas, key metadata, and the tuples themselves are
// shared, since they are immutable after construction. Tuple slices are
// shared copy-on-append: incremental maintenance only ever appends past
// the snapshot's length or reallocates, never writes in place.
func (c *Catalog) Clone() *Catalog {
	nc := &Catalog{
		relations: make(map[string]*Relation, len(c.relations)),
		order:     c.order,
		primary:   c.primary,
		foreign:   c.foreign,
	}
	for k, r := range c.relations {
		// Cap the tuple slice at its current length so a later append in
		// one clone cannot write into backing memory that a sibling clone
		// of the same snapshot has already claimed. The clone's tuples
		// may change, so it starts without a memo.
		nc.relations[k] = &Relation{Name: r.Name, Schema: r.Schema,
			Tuples: r.Tuples[:len(r.Tuples):len(r.Tuples)]}
	}
	return nc
}

// Get returns the named relation, or nil.
func (c *Catalog) Get(name string) *Relation {
	return c.relations[strings.ToLower(name)]
}

// Names returns registered relation names in insertion order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.order))
	for i, k := range c.order {
		out[i] = c.relations[k].Name
	}
	return out
}

// SetPrimaryKey declares the primary key column of a table.
func (c *Catalog) SetPrimaryKey(table, column string) {
	c.primary[strings.ToLower(table)] = strings.ToLower(column)
}

// PrimaryKey returns the PK column of a table ("" if none declared).
func (c *Catalog) PrimaryKey(table string) string {
	return c.primary[strings.ToLower(table)]
}

// AddForeignKey declares a FK relationship.
func (c *Catalog) AddForeignKey(fk ForeignKey) {
	fk.Table = strings.ToLower(fk.Table)
	fk.Column = strings.ToLower(fk.Column)
	fk.RefTable = strings.ToLower(fk.RefTable)
	fk.RefColumn = strings.ToLower(fk.RefColumn)
	c.foreign = append(c.foreign, fk)
}

// ForeignKeys returns all declared FK relationships.
func (c *Catalog) ForeignKeys() []ForeignKey { return c.foreign }

// IsPKFKJoin reports whether joining ta.ca = tb.cb is a PK-FK join in
// either direction per the declared key metadata.
func (c *Catalog) IsPKFKJoin(ta, ca, tb, cb string) bool {
	ta, ca = strings.ToLower(ta), strings.ToLower(ca)
	tb, cb = strings.ToLower(tb), strings.ToLower(cb)
	if c.primary[ta] == ca || c.primary[tb] == cb {
		return true
	}
	for _, fk := range c.foreign {
		if fk.Table == ta && fk.Column == ca && fk.RefTable == tb && fk.RefColumn == cb {
			return true
		}
		if fk.Table == tb && fk.Column == cb && fk.RefTable == ta && fk.RefColumn == ca {
			return true
		}
	}
	return false
}

// TotalTuples returns the number of tuples across all relations (the
// paper's IN measure).
func (c *Catalog) TotalTuples() int {
	n := 0
	for _, r := range c.relations {
		n += r.Len()
	}
	return n
}

// TotalBytes returns the data footprint across all relations.
func (c *Catalog) TotalBytes() int {
	n := 0
	for _, r := range c.relations {
		n += r.ByteSize()
	}
	return n
}

// String summarizes the catalog, sorted by name for determinism.
func (c *Catalog) String() string {
	names := make([]string, 0, len(c.relations))
	for k := range c.relations {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		r := c.relations[n]
		fmt.Fprintf(&b, "%s%s: %d rows\n", r.Name, r.Schema, r.Len())
	}
	return b.String()
}
