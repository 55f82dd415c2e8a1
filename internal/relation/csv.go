package relation

import (
	"encoding/csv"
	"io"
)

// WriteCSV writes the relation with a header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return err
	}
	row := make([]string, r.Schema.Len())
	for _, t := range r.Tuples {
		for i, v := range t {
			if v.IsNull() {
				row[i] = ""
			} else {
				row[i] = v.String()
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
