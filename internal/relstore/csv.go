package relstore

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV writes a result as CSV with a header row. NULLs render as empty
// fields.
func WriteCSV(w io.Writer, rows *Rows) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rows.Schema.Names()); err != nil {
		return err
	}
	rec := make([]string, rows.Schema.Arity())
	for _, row := range rows.Data {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.Display()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// readCSV parses CSV produced by WriteCSV into a result typed by the given
// schema. The header must match the schema's column names in order. Only
// the CSV round-trip tests read CSV back; gendata writes it.
func readCSV(r io.Reader, schema *Schema) (*Rows, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relstore: read csv header: %w", err)
	}
	names := schema.Names()
	if len(header) != len(names) {
		return nil, fmt.Errorf("relstore: csv header arity %d != schema arity %d", len(header), len(names))
	}
	for i := range header {
		if header[i] != names[i] {
			return nil, fmt.Errorf("relstore: csv header %q != schema column %q", header[i], names[i])
		}
	}
	var data []Row
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: read csv: %w", err)
		}
		row := make(Row, len(rec))
		for i, field := range rec {
			if field == "" {
				row[i] = Null()
				continue
			}
			v, err := Coerce(Str(field), schema.Columns[i].Type)
			if err != nil {
				return nil, fmt.Errorf("relstore: csv column %q: %w", names[i], err)
			}
			row[i] = v
		}
		data = append(data, row)
	}
	return &Rows{Schema: schema, Data: data}, nil
}
