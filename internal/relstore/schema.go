package relstore

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name    string
	Type    Kind
	NotNull bool
}

// Schema is an ordered list of columns. Column names are unique
// case-sensitively; lookups are case-sensitive because the schemas in this
// system are machine-generated from form definitions.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns, validating name uniqueness.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relstore: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relstore: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named column, or -1 when absent.
func (s *Schema) Index(name string) int {
	if s == nil || s.byName == nil {
		return -1
	}
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Col returns the column with the given name.
func (s *Schema) Col(name string) (Column, error) {
	i := s.Index(name)
	if i < 0 {
		return Column{}, fmt.Errorf("relstore: no column %q in (%s)", name, s.NameList())
	}
	return s.Columns[i], nil
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// NameList renders the column names as a comma-separated list.
func (s *Schema) NameList() string { return strings.Join(s.Names(), ", ") }

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// Equal reports whether two schemas have identical columns in order.
func (s *Schema) Equal(o *Schema) bool {
	if s.Arity() != o.Arity() {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// Project returns a new schema containing the named columns in the given
// order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		c, err := s.Col(n)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return NewSchema(cols...)
}

// isNamed reports whether names are the schema's column names in order.
func (s *Schema) isNamed(names []string) bool {
	if len(names) != len(s.Columns) {
		return false
	}
	for i, c := range s.Columns {
		if c.Name != names[i] {
			return false
		}
	}
	return true
}

// Rename returns a copy of the schema with one column renamed.
func (s *Schema) Rename(from, to string) (*Schema, error) {
	if !s.Has(from) {
		return nil, fmt.Errorf("relstore: rename: no column %q", from)
	}
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	cols[s.Index(from)].Name = to
	return NewSchema(cols...)
}

// Append returns a copy of the schema with extra columns added at the end.
func (s *Schema) Append(cols ...Column) (*Schema, error) {
	all := make([]Column, 0, len(s.Columns)+len(cols))
	all = append(all, s.Columns...)
	all = append(all, cols...)
	return NewSchema(all...)
}

// Validate checks a row against the schema: arity, NOT NULL, and value kinds
// (NULL is allowed in nullable columns; int is accepted where float is
// declared).
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("relstore: row arity %d != schema arity %d (%s)", len(r), len(s.Columns), s.NameList())
	}
	for i, c := range s.Columns {
		v := r[i]
		if v.IsNull() {
			if c.NotNull {
				return fmt.Errorf("relstore: NULL in NOT NULL column %q", c.Name)
			}
			continue
		}
		if v.Kind() == c.Type {
			continue
		}
		if c.Type == KindFloat && v.Kind() == KindInt {
			continue
		}
		return fmt.Errorf("relstore: column %q expects %s, got %s (%s)", c.Name, c.Type, v.Kind(), v)
	}
	return nil
}

// DDL renders the schema as a CREATE TABLE body for documentation output.
func (s *Schema) DDL() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		p := c.Name + " " + c.Type.String()
		if c.NotNull {
			p += " NOT NULL"
		}
		parts[i] = p
	}
	return strings.Join(parts, ", ")
}
