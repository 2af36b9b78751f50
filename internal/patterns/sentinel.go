package patterns

import (
	"fmt"

	"guava/internal/relstore"
)

// Sentinel is the pattern where the physical database forbids NULL and
// stores a per-type sentinel value instead — legacy clinical schemas often
// use -9 or "-" for "not recorded". The g-tree view restores NULLs so
// classifiers can test "Unselected" uniformly.
type Sentinel struct {
	// IntCode, FloatCode, StringCode, BoolAsInt are the stored stand-ins
	// for NULL per naive column type. Zero values select the defaults
	// -9999, -9999, "<none>"; booleans are stored as -9999 integers only
	// when NULL (live booleans pass through).
	IntCode    int64
	FloatCode  float64
	StringCode string
}

func (s *Sentinel) intCode() int64 {
	if s.IntCode == 0 {
		return -9999
	}
	return s.IntCode
}

func (s *Sentinel) floatCode() float64 {
	if s.FloatCode == 0 {
		return -9999
	}
	return s.FloatCode
}

func (s *Sentinel) stringCode() string {
	if s.StringCode == "" {
		return "<none>"
	}
	return s.StringCode
}

// Name implements Transform.
func (*Sentinel) Name() string { return "Sentinel" }

// Describe implements Transform.
func (*Sentinel) Describe() string {
	return "The physical schema forbids NULL; missing answers are stored as out-of-domain sentinel values."
}

// Adapt implements Transform: column types are unchanged, but boolean
// columns widen to integers (0/1/sentinel) because a boolean type cannot
// carry a third state.
func (s *Sentinel) Adapt(form FormInfo) (FormInfo, error) {
	cols := make([]relstore.Column, form.Schema.Arity())
	for i, c := range form.Schema.Columns {
		if c.Type == relstore.KindBool {
			c.Type = relstore.KindInt
		}
		if c.Name != form.KeyColumn {
			c.NotNull = true
		}
		cols[i] = c
	}
	schema, err := relstore.NewSchema(cols...)
	if err != nil {
		return FormInfo{}, err
	}
	return FormInfo{Name: form.Name, KeyColumn: form.KeyColumn, Schema: schema}, nil
}

// Install implements Transform.
func (*Sentinel) Install(*relstore.DB, FormInfo, FormInfo) error { return nil }

func (s *Sentinel) encodeValue(t relstore.Kind, v relstore.Value) (relstore.Value, error) {
	if v.IsNull() {
		switch t {
		case relstore.KindInt, relstore.KindBool:
			return relstore.Int(s.intCode()), nil
		case relstore.KindFloat:
			return relstore.Float(s.floatCode()), nil
		case relstore.KindString:
			return relstore.Str(s.stringCode()), nil
		default:
			return relstore.Null(), fmt.Errorf("sentinel: no sentinel for %s", t)
		}
	}
	switch t {
	case relstore.KindBool:
		if v.AsBool() {
			return relstore.Int(1), nil
		}
		return relstore.Int(0), nil
	case relstore.KindInt:
		if v.AsInt() == s.intCode() {
			return relstore.Null(), fmt.Errorf("sentinel: live value %s collides with the integer sentinel", v)
		}
	case relstore.KindFloat:
		if v.AsFloat() == s.floatCode() {
			return relstore.Null(), fmt.Errorf("sentinel: live value %s collides with the float sentinel", v)
		}
	case relstore.KindString:
		if v.AsString() == s.stringCode() {
			return relstore.Null(), fmt.Errorf("sentinel: live value %s collides with the string sentinel", v)
		}
	}
	return v, nil
}

func (s *Sentinel) decodeValue(t relstore.Kind, v relstore.Value) relstore.Value {
	if v.IsNull() {
		return v
	}
	switch t {
	case relstore.KindBool:
		if v.AsInt() == s.intCode() {
			return relstore.Null()
		}
		return relstore.Bool(v.AsInt() != 0)
	case relstore.KindInt:
		if v.AsInt() == s.intCode() {
			return relstore.Null()
		}
	case relstore.KindFloat:
		if v.AsFloat() == s.floatCode() {
			return relstore.Null()
		}
	case relstore.KindString:
		if v.AsString() == s.stringCode() {
			return relstore.Null()
		}
	}
	return v
}

// Encode implements Transform.
func (s *Sentinel) Encode(_ *relstore.DB, outer, _ FormInfo, row relstore.Row) (relstore.Row, error) {
	out := make(relstore.Row, len(row))
	for i, v := range row {
		c := outer.Schema.Columns[i]
		if c.Name == outer.KeyColumn {
			out[i] = v
			continue
		}
		ev, err := s.encodeValue(c.Type, v)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", c.Name, err)
		}
		out[i] = ev
	}
	return out, nil
}

// Decode implements Transform.
func (s *Sentinel) Decode(_ *relstore.DB, outer, inner FormInfo, rows *relstore.Rows) (*relstore.Rows, error) {
	return mapCells(rows, inner.Schema.Names(), outer.Schema, func(i int, v relstore.Value) (relstore.Value, error) {
		if c := outer.Schema.Columns[i]; c.Name != outer.KeyColumn {
			v = s.decodeValue(c.Type, v)
		}
		return v, nil
	})
}

// AdaptUpdate implements Transform.
func (s *Sentinel) AdaptUpdate(_ *relstore.DB, outer, _ FormInfo, col string, v relstore.Value) (string, relstore.Value, error) {
	c, err := outer.Schema.Col(col)
	if err != nil {
		// Column introduced by an outer transform (e.g. the audit column);
		// pass through untouched.
		return col, v, nil
	}
	ev, err := s.encodeValue(c.Type, v)
	if err != nil {
		return "", relstore.Null(), err
	}
	return col, ev, nil
}
