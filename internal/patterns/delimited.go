package patterns

import (
	"fmt"
	"strings"

	"guava/internal/relstore"
)

// Delimited is the pattern where a group of related text answers is packed
// into one delimited physical column — vendor tools commonly concatenate a
// multi-select ("surgery;IV fluids;oxygen") into a single field. The g-tree
// view splits the packed field back into per-control columns.
//
// NULL handling: a NULL component is encoded as the empty segment, and a
// record whose components are all NULL stores NULL in the packed column.
// Empty-string answers are escaped so they stay distinguishable from NULL.
type Delimited struct {
	// Into names the packed physical column.
	Into string
	// Columns are the string columns packed, in order.
	Columns []string
	// Sep is the separator (default ";").
	Sep string
}

func (d *Delimited) sep() string {
	if d.Sep == "" {
		return ";"
	}
	return d.Sep
}

// Name implements Transform.
func (*Delimited) Name() string { return "Delimited" }

// Describe implements Transform.
func (*Delimited) Describe() string {
	return "Several related answers are packed into one delimited physical column."
}

func (d *Delimited) check(form FormInfo) error {
	if len(d.Columns) < 2 {
		return fmt.Errorf("delimited: needs at least two columns")
	}
	if d.Into == "" {
		return fmt.Errorf("delimited: no target column name")
	}
	for _, col := range d.Columns {
		c, err := form.Schema.Col(col)
		if err != nil {
			return fmt.Errorf("delimited: %w", err)
		}
		if c.Type != relstore.KindString {
			return fmt.Errorf("delimited: column %q is %s, only TEXT columns can be packed", col, c.Type)
		}
		if col == form.KeyColumn {
			return fmt.Errorf("delimited: key column cannot be packed")
		}
	}
	return nil
}

// Adapt implements Transform: the packed columns disappear, replaced by one.
func (d *Delimited) Adapt(form FormInfo) (FormInfo, error) {
	if err := d.check(form); err != nil {
		return FormInfo{}, err
	}
	packed := make(map[string]bool, len(d.Columns))
	for _, c := range d.Columns {
		packed[c] = true
	}
	var cols []relstore.Column
	for _, c := range form.Schema.Columns {
		if packed[c.Name] {
			continue
		}
		cols = append(cols, c)
	}
	cols = append(cols, relstore.Column{Name: d.Into, Type: relstore.KindString})
	schema, err := relstore.NewSchema(cols...)
	if err != nil {
		return FormInfo{}, fmt.Errorf("delimited: %w", err)
	}
	return FormInfo{Name: form.Name, KeyColumn: form.KeyColumn, Schema: schema}, nil
}

// Install implements Transform.
func (*Delimited) Install(*relstore.DB, FormInfo, FormInfo) error { return nil }

// escape protects separator characters and marks empty strings.
func (d *Delimited) escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, d.sep(), `\`+d.sep())
	if s == "" {
		return `\e`
	}
	return s
}

func (d *Delimited) unescape(s string) (relstore.Value, error) {
	if s == "" {
		return relstore.Null(), nil
	}
	if strings.IndexByte(s, '\\') < 0 {
		return relstore.Str(s), nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			if i+1 >= len(s) {
				return relstore.Null(), fmt.Errorf("delimited: dangling escape in %q", s)
			}
			i++
			if s[i] == 'e' {
				continue
			}
		}
		sb.WriteByte(s[i])
	}
	return relstore.Str(sb.String()), nil
}

// splitPacked appends to segs the substrings of s between unescaped separators.
func (d *Delimited) splitPacked(segs []string, s string) []string {
	sep, start := d.sep(), 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		} else if strings.HasPrefix(s[i:], sep) {
			segs = append(segs, s[start:i])
			i += len(sep) - 1
			start = i + 1
		}
	}
	return append(segs, s[start:])
}

// Encode implements Transform.
func (d *Delimited) Encode(_ *relstore.DB, outer, inner FormInfo, row relstore.Row) (relstore.Row, error) {
	segs := make([]string, len(d.Columns))
	allNull := true
	for i, col := range d.Columns {
		v := row[outer.Schema.Index(col)]
		if v.IsNull() {
			segs[i] = ""
			continue
		}
		allNull = false
		segs[i] = d.escape(v.AsString())
	}
	out := make(relstore.Row, inner.Schema.Arity())
	for i, c := range inner.Schema.Columns {
		if c.Name == d.Into {
			if allNull {
				out[i] = relstore.Null()
			} else {
				out[i] = relstore.Str(strings.Join(segs, d.sep()))
			}
			continue
		}
		out[i] = row[outer.Schema.Index(c.Name)]
	}
	return out, nil
}

// Decode implements Transform.
func (d *Delimited) Decode(_ *relstore.DB, outer, inner FormInfo, rows *relstore.Rows) (*relstore.Rows, error) {
	packedIdx := rows.Schema.Index(d.Into)
	if packedIdx < 0 {
		return nil, fmt.Errorf("delimited: packed column %q missing from read", d.Into)
	}
	// from[i] is the read column outer column i copies (-1: none), and
	// into[k] the outer column packed column k decodes to.
	from, into := make([]int, outer.Schema.Arity()), make([]int, len(d.Columns))
	for i, c := range outer.Schema.Columns {
		if from[i] = rows.Schema.Index(c.Name); c.Name == d.Into {
			from[i] = -1
		}
	}
	for k, col := range d.Columns {
		into[k] = outer.Schema.Index(col)
	}
	segs, data := []string(nil), make([]relstore.Row, len(rows.Data))
	for r, row := range rows.Data {
		nr := make(relstore.Row, len(from))
		for i, j := range from {
			if j >= 0 {
				nr[i] = row[j]
			}
		}
		if packed := row[packedIdx]; !packed.IsNull() {
			if segs = d.splitPacked(segs[:0], packed.AsString()); len(segs) != len(into) {
				return nil, fmt.Errorf("delimited: packed value %q has %d segments, want %d", packed.AsString(), len(segs), len(into))
			}
			for k, seg := range segs {
				v, err := d.unescape(seg)
				if err != nil {
					return nil, err
				}
				nr[into[k]] = v
			}
		}
		data[r] = nr
	}
	return &relstore.Rows{Schema: outer.Schema, Data: data}, nil
}

// AdaptUpdate implements Transform. Updating a packed component would need a
// read-modify-write of the packed field; reporting tools rewrite the whole
// record instead, so the transform rejects it explicitly.
func (d *Delimited) AdaptUpdate(_ *relstore.DB, _, _ FormInfo, col string, v relstore.Value) (string, relstore.Value, error) {
	for _, c := range d.Columns {
		if c == col {
			return "", relstore.Null(), fmt.Errorf("delimited: cannot update packed column %q in place", col)
		}
	}
	return col, v, nil
}
