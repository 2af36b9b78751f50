package relstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// This file implements the typed, NULL-safe serialization of relations the
// ETL checkpoint layer durably stores between runs. CSV (csv.go) is the
// human-facing export and cannot round-trip a relation exactly — it conflates
// NULL with the empty string and drops column types. The typed format is
// line-oriented JSON: one schema line, then one line per row with every value
// tagged by kind, so Read(Write(rows)) reproduces the relation bit for bit.
//
// Integers serialize as JSON strings, not numbers: an int64 above 2^53 would
// silently lose precision through a float64-backed JSON decoder.

// serialColumn is the JSON shape of one schema column.
type serialColumn struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	NotNull bool   `json:"notnull,omitempty"`
}

// serialValue is the JSON shape of one typed cell; exactly one field is set,
// and a JSON null stands for the NULL value.
type serialValue struct {
	I *string  `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	S *string  `json:"s,omitempty"`
	B *bool    `json:"b,omitempty"`
}

// kindFromString inverts Kind.String.
func kindFromString(s string) (Kind, error) {
	switch s {
	case "NULL":
		return KindNull, nil
	case "INTEGER":
		return KindInt, nil
	case "REAL":
		return KindFloat, nil
	case "TEXT":
		return KindString, nil
	case "BOOLEAN":
		return KindBool, nil
	}
	return KindNull, fmt.Errorf("relstore: unknown column type %q", s)
}

// schemaToSerial is a schema's JSON shape: the v1 schema line and the v2
// header's "schema" field.
func schemaToSerial(s *Schema) []serialColumn {
	cols := make([]serialColumn, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = serialColumn{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull}
	}
	return cols
}

// schemaFromSerial inverts schemaToSerial.
func schemaFromSerial(cols []serialColumn) (*Schema, error) {
	out := make([]Column, len(cols))
	for i, c := range cols {
		k, err := kindFromString(c.Type)
		if err != nil {
			return nil, err
		}
		out[i] = Column{Name: c.Name, Type: k, NotNull: c.NotNull}
	}
	return NewSchema(out...)
}

// UnmarshalSchemaJSON parses a schema line written by WriteTyped.
func UnmarshalSchemaJSON(b []byte) (*Schema, error) {
	var cols []serialColumn
	if err := json.Unmarshal(b, &cols); err != nil {
		return nil, fmt.Errorf("relstore: parse schema: %w", err)
	}
	return schemaFromSerial(cols)
}

// AppendRowJSON appends one row, rendered as one JSON line of kind-tagged
// values without the newline, to dst and returns the extended buffer. It is
// the one row encoder: both .rel layouts and patch records write the bytes
// it appends. The output is exactly what encoding/json gives for the
// row as a []*serialValue — NULL is null, an int {"i":"<decimal>"}, a float
// {"f":<number>}, a string {"s":<string>}, a bool {"b":true|false} — but it
// allocates nothing unless a string needs escaping. A NaN or infinite float
// is an error, as it is for encoding/json; on error dst is returned
// unextended.
func AppendRowJSON(dst []byte, r Row) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '[')
	for i, v := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.Kind() {
		case KindNull:
			dst = append(dst, "null"...)
		case KindInt:
			dst = append(dst, `{"i":"`...)
			dst = strconv.AppendInt(dst, v.AsInt(), 10)
			dst = append(dst, `"}`...)
		case KindFloat:
			var err error
			dst = append(dst, `{"f":`...)
			if dst, err = appendJSONFloat(dst, v.AsFloat()); err != nil {
				return dst[:start], err
			}
			dst = append(dst, '}')
		case KindString:
			dst = append(dst, `{"s":`...)
			dst = appendJSONString(dst, v.AsString())
			dst = append(dst, '}')
		case KindBool:
			if v.AsBool() {
				dst = append(dst, `{"b":true}`...)
			} else {
				dst = append(dst, `{"b":false}`...)
			}
		default:
			return dst[:start], fmt.Errorf("relstore: cannot serialize value of kind %v", v.Kind())
		}
	}
	return append(dst, ']'), nil
}

// appendJSONFloat appends f the way encoding/json renders a float64: the
// shortest decimal that round-trips, in exponent form only below 1e-6 or
// from 1e21 in magnitude, with the exponent's leading zero dropped (e-07
// becomes e-7).
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendJSONString appends s as a JSON string. A string with no byte that
// encoding/json would escape or check — control bytes, '"', '\\', the HTML
// characters '<', '>' and '&', and every non-ASCII byte — is copied between
// quotes; any other goes through json.Marshal, which stays the one authority
// on escaping (HTML escapes, U+2028/U+2029, invalid UTF-8 as \ufffd).
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// UnmarshalRowJSON parses a row line written by AppendRowJSON.
func UnmarshalRowJSON(b []byte) (Row, error) {
	var vals []*serialValue
	if err := json.Unmarshal(b, &vals); err != nil {
		return nil, fmt.Errorf("relstore: parse row: %w", err)
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		switch {
		case v == nil:
			row[i] = Null()
		case v.I != nil:
			n, err := strconv.ParseInt(*v.I, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("relstore: parse row integer %q: %w", *v.I, err)
			}
			row[i] = Int(n)
		case v.F != nil:
			row[i] = Float(*v.F)
		case v.S != nil:
			row[i] = Str(*v.S)
		case v.B != nil:
			row[i] = Bool(*v.B)
		default:
			return nil, fmt.Errorf("relstore: row value %d has no kind tag", i)
		}
	}
	return row, nil
}

// WriteTyped writes a relation in the typed line format: the schema line,
// then one row line per tuple. Every row line is encoded into one reused
// buffer.
func WriteTyped(w io.Writer, rows *Rows) error {
	sl, err := json.Marshal(schemaToSerial(rows.Schema))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	bw.Write(sl)
	bw.WriteByte('\n')
	var line []byte
	for _, r := range rows.Data {
		if line, err = AppendRowJSON(line[:0], r); err != nil {
			return err
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// ReadTyped parses a relation written by WriteTyped or WriteTypedSegmented,
// validating every row against the parsed schema. The format version is
// sniffed from the first byte: v1 files open with the bare schema array
// ('['), v2 segment files with a header object ('{'). Only files written
// before generations and warehouses moved to v1 are v2 (see segment.go).
func ReadTyped(r io.Reader) (*Rows, error) {
	br := bufio.NewReader(r)
	sl, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("relstore: read typed relation: %w", err)
	}
	if len(sl) > 0 && sl[0] == '{' {
		var hdr relHeader
		if err := json.Unmarshal(sl, &hdr); err != nil {
			return nil, fmt.Errorf("relstore: parse v2 header: %w", err)
		}
		if hdr.Rel != 2 {
			return nil, fmt.Errorf("relstore: unsupported .rel version %d", hdr.Rel)
		}
		return readTypedV2(br, hdr)
	}
	schema, err := UnmarshalSchemaJSON(sl)
	if err != nil {
		return nil, err
	}
	var data []Row
	for {
		rl, err := readLine(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: read typed relation: %w", err)
		}
		row, err := UnmarshalRowJSON(rl)
		if err != nil {
			return nil, err
		}
		if err := schema.Validate(row); err != nil {
			return nil, fmt.Errorf("relstore: typed relation row %d: %w", len(data), err)
		}
		data = append(data, row)
	}
	return &Rows{Schema: schema, Data: data}, nil
}

// readLine returns the next newline-terminated line without the terminator.
// A non-empty final line without a newline is an error — it is how a torn
// write looks — while a clean EOF at a line boundary ends the stream.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err == io.EOF && len(line) > 0 {
		return nil, fmt.Errorf("truncated line %q", line)
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}
