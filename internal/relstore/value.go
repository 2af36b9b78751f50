package relstore

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The value kinds supported by the engine. KindNull is the type of the SQL
// NULL value; a null compares equal only to null and orders before all other
// values.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed cell, 32 bytes wide (see the package doc,
// "Cells"). The zero Value is NULL. s holds a TEXT cell's string, and n an
// INTEGER's bits, a REAL's math.Float64bits or a BOOLEAN's 0 or 1, so -0
// and every NaN payload survive. Values are compared with Equal or Compare,
// never with ==, and never key a map: on this layout == tells -0 from +0
// and calls two NaNs with one payload equal.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// i, f and b read n as an INTEGER, a REAL and a BOOLEAN: a caller knows
// the kind first.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It is valid only when Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return v.i()
}

// AsFloat returns the numeric payload widened to float64. Valid for KindInt
// and KindFloat.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i())
	case KindFloat:
		return v.f()
	}
	return 0
}

// AsString returns the string payload. Valid only when Kind is KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. Valid only when Kind is KindBool.
func (v Value) AsBool() bool { return v.kind == KindBool && v.b() }

// IsNumeric reports whether v is an integer or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// Display renders the value for human-facing tables: like String but without
// quoting around strings.
func (v Value) Display() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// Equal reports deep equality. NULL equals only NULL. Integers and floats
// compare numerically across kinds (Int(2).Equal(Float(2)) is true), because
// design-pattern round trips may legitimately widen integers.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return v.kind == o.kind
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i() == o.i()
		}
		return v.AsFloat() == o.AsFloat()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b() == o.b()
	}
	return false
}

// Compare orders two values. NULL sorts before everything; two integers
// compare exactly as int64s, mixed numeric kinds compare numerically through
// float64; otherwise kinds order by their Kind constant and values of equal
// kind order naturally. The result is -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.kind == KindInt && o.kind == KindInt {
		return cmp.Compare(v.i(), o.i())
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindBool:
		switch {
		case v.b() == o.b():
			return 0
		case !v.b():
			return -1
		default:
			return 1
		}
	}
	return 0
}

// Key returns a string map-key form of the value, for whole-row keys
// (Row.Key), grouping, checkpoint keys and callers outside relstore; hash
// indexes and hash operators key by hkey instead. Numerically equal
// int/float values share a key, -0 included: a.Equal(b) implies a.Key() ==
// b.Key(). The converse fails for integers past 2^53, which share their
// float64 neighbour's key, so a lookup by key re-checks Equal.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindInt:
		return "f" + strconv.FormatFloat(float64(v.i()), 'g', -1, 64)
	case KindFloat:
		if v.f() == 0 {
			return "f0"
		}
		return "f" + strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return "s" + v.s
	case KindBool:
		if v.b() {
			return "bt"
		}
		return "bf"
	default:
		return "?"
	}
}

// hkey is the hash key relstore's hash indexes and hash operators (Join,
// Unpivot and a bound IN list) use in place of Key: comparable, computed
// without allocating, and with Key's equivalence classes. a.Equal(b)
// implies a.hkey() == b.hkey(): every number is keyed by its float64
// bits, with -0 folded into +0 and every NaN sharing one key, so an
// integer past 2^53 shares its float64 neighbour's key and a hit is
// re-checked with Equal.
type hkey struct {
	kind Kind   // KindFloat for every number
	bits uint64 // a number's float64 bits; a bool's 0 or 1
	s    string // a string's bytes
}

// canonicalNaN is the bits every NaN is keyed by.
var canonicalNaN = math.Float64bits(math.NaN())

func (v Value) hkey() hkey {
	switch v.kind {
	case KindInt:
		return hkey{kind: KindFloat, bits: math.Float64bits(float64(v.i()))}
	case KindFloat:
		switch {
		case v.f() == 0:
			return hkey{kind: KindFloat}
		case v.f() != v.f():
			return hkey{kind: KindFloat, bits: canonicalNaN}
		}
		return hkey{kind: KindFloat, bits: math.Float64bits(v.f())}
	case KindString:
		return hkey{kind: KindString, s: v.s}
	case KindBool:
		if v.b() {
			return hkey{kind: KindBool, bits: 1}
		}
		return hkey{kind: KindBool}
	}
	return hkey{}
}

// Truthy interprets the value as a condition result: TRUE booleans, non-zero
// numbers and non-empty strings are truthy; NULL is falsy.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b()
	case KindInt:
		return v.i() != 0
	case KindFloat:
		return v.f() != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// Coerce converts v to the requested kind when a safe conversion exists
// (int↔float, anything→string via Display, "0"/"1"/"true"/"false"→bool,
// numeric strings→numbers). It returns an error otherwise. NULL coerces to
// NULL of any kind.
func Coerce(v Value, k Kind) (Value, error) {
	if v.kind == KindNull || v.kind == k {
		return v, nil
	}
	switch k {
	case KindString:
		return Str(v.Display()), nil
	case KindFloat:
		switch v.kind {
		case KindInt:
			return Float(float64(v.i())), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null(), fmt.Errorf("relstore: cannot coerce %s to REAL", v)
			}
			return Float(f), nil
		case KindBool:
			if v.b() {
				return Float(1), nil
			}
			return Float(0), nil
		}
	case KindInt:
		switch v.kind {
		case KindFloat:
			if v.f() == float64(int64(v.f())) {
				return Int(int64(v.f())), nil
			}
			return Null(), fmt.Errorf("relstore: cannot coerce %s to INTEGER without loss", v)
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("relstore: cannot coerce %s to INTEGER", v)
			}
			return Int(i), nil
		case KindBool:
			if v.b() {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case KindBool:
		switch v.kind {
		case KindInt:
			return Bool(v.i() != 0), nil
		case KindFloat:
			return Bool(v.f() != 0), nil
		case KindString:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "t", "yes", "y", "1":
				return Bool(true), nil
			case "false", "f", "no", "n", "0":
				return Bool(false), nil
			}
			return Null(), fmt.Errorf("relstore: cannot coerce %s to BOOLEAN", v)
		}
	}
	return Null(), fmt.Errorf("relstore: cannot coerce %s (%s) to %s", v, v.kind, k)
}

// Row is a tuple of values, positionally aligned with a Schema.
type Row []Value

// Clone returns a copy of the row that shares no backing storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have the same length and pairwise-equal
// values.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key concatenates the value keys of the row, for hashing whole tuples.
func (r Row) Key() string {
	var sb strings.Builder
	for _, v := range r {
		sb.WriteString(v.Key())
		sb.WriteByte(0x1f)
	}
	return sb.String()
}
