package patterns

import (
	"fmt"

	"guava/internal/relstore"
)

// Encode is the pattern where boolean answers are stored as coded strings —
// clinical tools commonly store "Y"/"N" characters rather than a boolean
// type. Every boolean naive column (key excluded) becomes a TEXT column
// physically.
type Encode struct {
	// TrueCode and FalseCode are the stored strings (defaults "Y" and "N").
	TrueCode, FalseCode string
}

func (e *Encode) codes() (string, string) {
	t, f := e.TrueCode, e.FalseCode
	if t == "" {
		t = "Y"
	}
	if f == "" {
		f = "N"
	}
	return t, f
}

// Name implements Transform.
func (*Encode) Name() string { return "Encode" }

// Describe implements Transform.
func (*Encode) Describe() string {
	return "Boolean answers are stored as coded strings (e.g. 'Y'/'N') rather than a boolean type."
}

// Adapt implements Transform.
func (e *Encode) Adapt(form FormInfo) (FormInfo, error) {
	tc, fc := e.codes()
	if tc == fc {
		return FormInfo{}, fmt.Errorf("encode: true and false codes are both %q", tc)
	}
	cols := make([]relstore.Column, form.Schema.Arity())
	for i, c := range form.Schema.Columns {
		if c.Type == relstore.KindBool {
			c.Type = relstore.KindString
		}
		cols[i] = c
	}
	s, err := relstore.NewSchema(cols...)
	if err != nil {
		return FormInfo{}, err
	}
	return FormInfo{Name: form.Name, KeyColumn: form.KeyColumn, Schema: s}, nil
}

// Install implements Transform.
func (*Encode) Install(*relstore.DB, FormInfo, FormInfo) error { return nil }

func (e *Encode) encodeValue(v relstore.Value) relstore.Value {
	if v.IsNull() || v.Kind() != relstore.KindBool {
		return v
	}
	tc, fc := e.codes()
	if v.AsBool() {
		return relstore.Str(tc)
	}
	return relstore.Str(fc)
}

// Encode implements Transform.
func (e *Encode) Encode(_ *relstore.DB, outer, _ FormInfo, row relstore.Row) (relstore.Row, error) {
	out := make(relstore.Row, len(row))
	for i, v := range row {
		if outer.Schema.Columns[i].Type == relstore.KindBool {
			out[i] = e.encodeValue(v)
		} else {
			out[i] = v
		}
	}
	return out, nil
}

// Decode implements Transform.
func (e *Encode) Decode(_ *relstore.DB, outer, inner FormInfo, rows *relstore.Rows) (*relstore.Rows, error) {
	tc, fc := e.codes()
	return mapCells(rows, inner.Schema.Names(), outer.Schema, func(i int, v relstore.Value) (relstore.Value, error) {
		if outer.Schema.Columns[i].Type != relstore.KindBool || v.IsNull() {
			return v, nil
		}
		switch v.Display() {
		case tc:
			return relstore.Bool(true), nil
		case fc:
			return relstore.Bool(false), nil
		}
		return v, fmt.Errorf("encode: column %q holds %q, expected %q or %q",
			outer.Schema.Columns[i].Name, v.Display(), tc, fc)
	})
}

// AdaptUpdate implements Transform.
func (e *Encode) AdaptUpdate(_ *relstore.DB, outer, _ FormInfo, col string, v relstore.Value) (string, relstore.Value, error) {
	if c, err := outer.Schema.Col(col); err == nil && c.Type == relstore.KindBool {
		return col, e.encodeValue(v), nil
	}
	return col, v, nil
}
