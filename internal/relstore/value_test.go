package relstore

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "NULL"},
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("abc"), KindString, "'abc'"},
		{Str("O'Brien"), KindString, "'O''Brien'"},
		{Bool(true), KindBool, "TRUE"},
		{Bool(false), KindBool, "FALSE"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestValueZeroIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(2), Int(2), true},
		{Int(2), Int(3), false},
		{Int(2), Float(2), true},
		{Float(2.5), Float(2.5), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{Int(0), Str("0"), false},
		{Bool(true), Int(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(3), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null(), Int(-100), -1},
		{Int(-100), Null(), 1},
		{Null(), Null(), 0},
		// Integers past 2^53 share a float64 but still order exactly.
		{Int(1 << 60), Int(1<<60 + 1), -1},
		{Int(1<<60 + 1), Int(1 << 60), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueKeyNumericUnification(t *testing.T) {
	if Int(2).Key() != Float(2).Key() {
		t.Error("Int(2) and Float(2) must share a hash key")
	}
	if Float(math.Copysign(0, -1)).Key() != Int(0).Key() {
		t.Error("-0 and 0 are Equal and must share a hash key")
	}
	if Int(2).Key() == Str("2").Key() {
		t.Error("Int(2) and Str(\"2\") must not share a key")
	}
	if Null().Key() == Str("").Key() {
		t.Error("NULL and empty string must not share a key")
	}
}

func TestValueTruthy(t *testing.T) {
	truthy := []Value{Bool(true), Int(1), Int(-1), Float(0.5), Str("x")}
	falsy := []Value{Null(), Bool(false), Int(0), Float(0), Str("")}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in      Value
		to      Kind
		want    Value
		wantErr bool
	}{
		{Int(3), KindFloat, Float(3), false},
		{Float(3), KindInt, Int(3), false},
		{Float(3.5), KindInt, Null(), true},
		{Str("17"), KindInt, Int(17), false},
		{Str(" 17 "), KindInt, Int(17), false},
		{Str("x"), KindInt, Null(), true},
		{Str("2.5"), KindFloat, Float(2.5), false},
		{Str("true"), KindBool, Bool(true), false},
		{Str("N"), KindBool, Bool(false), false},
		{Str("1"), KindBool, Bool(true), false},
		{Str("maybe"), KindBool, Null(), true},
		{Int(0), KindBool, Bool(false), false},
		{Bool(true), KindInt, Int(1), false},
		{Int(9), KindString, Str("9"), false},
		{Null(), KindInt, Null(), false},
		{Bool(true), KindFloat, Float(1), false},
	}
	for _, c := range cases {
		got, err := Coerce(c.in, c.to)
		if c.wantErr {
			if err == nil {
				t.Errorf("Coerce(%v, %v): want error, got %v", c.in, c.to, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Coerce(%v, %v): %v", c.in, c.to, err)
			continue
		}
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
}

func TestCoerceIdentityProperty(t *testing.T) {
	// Coercing a value to its own kind is the identity.
	f := func(i int64, s string, b bool) bool {
		for _, v := range []Value{Int(i), Str(s), Bool(b)} {
			got, err := Coerce(v, v.Kind())
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].AsInt() != 1 {
		t.Error("Clone must not share storage")
	}
	if !r.Equal(Row{Int(1), Str("a")}) {
		t.Error("original row mutated")
	}
}

func TestRowEqual(t *testing.T) {
	if (Row{Int(1)}).Equal(Row{Int(1), Int(2)}) {
		t.Error("rows of different arity must differ")
	}
	if !(Row{Int(1), Null()}).Equal(Row{Int(1), Null()}) {
		t.Error("rows with NULLs in same slots must be equal")
	}
}

func TestRowKeyDistinguishes(t *testing.T) {
	a := Row{Str("a"), Str("b")}
	b := Row{Str("ab"), Str("")}
	if a.Key() == b.Key() {
		t.Error("row keys must not collide across field boundaries")
	}
}
