package relstore

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// wideValue is Value as it was before it shrank to 32 bytes: one field
// per kind, 48 bytes wide. It is kept with its methods, verbatim but for
// the names, as the reference TestValueMatchesWide and FuzzValueMatchesWide
// hold the 32-byte layout to.
type wideValue struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

func wNull() wideValue           { return wideValue{} }
func wInt(v int64) wideValue     { return wideValue{kind: KindInt, i: v} }
func wFloat(v float64) wideValue { return wideValue{kind: KindFloat, f: v} }
func wStr(v string) wideValue    { return wideValue{kind: KindString, s: v} }
func wBool(v bool) wideValue     { return wideValue{kind: KindBool, b: v} }

func (v wideValue) Kind() Kind       { return v.kind }
func (v wideValue) IsNull() bool     { return v.kind == KindNull }
func (v wideValue) AsInt() int64     { return v.i }
func (v wideValue) AsString() string { return v.s }
func (v wideValue) AsBool() bool     { return v.b }
func (v wideValue) IsNumeric() bool  { return v.kind == KindInt || v.kind == KindFloat }

func (v wideValue) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

func (v wideValue) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

func (v wideValue) Display() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

func (v wideValue) Equal(o wideValue) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return v.kind == o.kind
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i
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
		return v.b == o.b
	}
	return false
}

func (v wideValue) Compare(o wideValue) int {
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
		return cmp.Compare(v.i, o.i)
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
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

func (v wideValue) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindInt:
		return "f" + strconv.FormatFloat(float64(v.i), 'g', -1, 64)
	case KindFloat:
		if v.f == 0 {
			return "f0"
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "s" + v.s
	case KindBool:
		if v.b {
			return "bt"
		}
		return "bf"
	default:
		return "?"
	}
}

func (v wideValue) hkey() hkey {
	switch v.kind {
	case KindInt:
		return hkey{kind: KindFloat, bits: math.Float64bits(float64(v.i))}
	case KindFloat:
		switch {
		case v.f == 0:
			return hkey{kind: KindFloat}
		case v.f != v.f:
			return hkey{kind: KindFloat, bits: canonicalNaN}
		}
		return hkey{kind: KindFloat, bits: math.Float64bits(v.f)}
	case KindString:
		return hkey{kind: KindString, s: v.s}
	case KindBool:
		if v.b {
			return hkey{kind: KindBool, bits: 1}
		}
		return hkey{kind: KindBool}
	}
	return hkey{}
}

func (v wideValue) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

func wideCoerce(v wideValue, k Kind) (wideValue, error) {
	if v.kind == KindNull || v.kind == k {
		return v, nil
	}
	switch k {
	case KindString:
		return wStr(v.Display()), nil
	case KindFloat:
		switch v.kind {
		case KindInt:
			return wFloat(float64(v.i)), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return wNull(), fmt.Errorf("relstore: cannot coerce %s to REAL", v)
			}
			return wFloat(f), nil
		case KindBool:
			if v.b {
				return wFloat(1), nil
			}
			return wFloat(0), nil
		}
	case KindInt:
		switch v.kind {
		case KindFloat:
			if v.f == float64(int64(v.f)) {
				return wInt(int64(v.f)), nil
			}
			return wNull(), fmt.Errorf("relstore: cannot coerce %s to INTEGER without loss", v)
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return wNull(), fmt.Errorf("relstore: cannot coerce %s to INTEGER", v)
			}
			return wInt(i), nil
		case KindBool:
			if v.b {
				return wInt(1), nil
			}
			return wInt(0), nil
		}
	case KindBool:
		switch v.kind {
		case KindInt:
			return wBool(v.i != 0), nil
		case KindFloat:
			return wBool(v.f != 0), nil
		case KindString:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "t", "yes", "y", "1":
				return wBool(true), nil
			case "false", "f", "no", "n", "0":
				return wBool(false), nil
			}
			return wNull(), fmt.Errorf("relstore: cannot coerce %s to BOOLEAN", v)
		}
	}
	return wNull(), fmt.Errorf("relstore: cannot coerce %s (%s) to %s", v, v.kind, k)
}

// wideRowJSON is AppendRowJSON over wide values.
func wideRowJSON(dst []byte, r []wideValue) ([]byte, error) {
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

// twin builds one cell in both layouts: kind k%5 over the payloads i
// (INTEGER, and BOOLEAN by its low bit), the bits fb (REAL) and s (TEXT).
func twin(k uint8, i int64, fb uint64, s string) (Value, wideValue) {
	switch k % 5 {
	case 1:
		return Int(i), wInt(i)
	case 2:
		f := math.Float64frombits(fb)
		return Float(f), wFloat(f)
	case 3:
		return Str(s), wStr(s)
	case 4:
		return Bool(i&1 == 1), wBool(i&1 == 1)
	}
	return Null(), wNull()
}

// sameValue reports the first accessor on which v and w disagree.
func sameValue(v Value, w wideValue) error {
	type probe struct {
		name      string
		got, want any
	}
	for _, p := range []probe{
		{"Kind", v.Kind(), w.Kind()},
		{"IsNull", v.IsNull(), w.IsNull()},
		{"IsNumeric", v.IsNumeric(), w.IsNumeric()},
		{"AsInt", v.AsInt(), w.AsInt()},
		{"AsFloat bits", math.Float64bits(v.AsFloat()), math.Float64bits(w.AsFloat())},
		{"AsString", v.AsString(), w.AsString()},
		{"AsBool", v.AsBool(), w.AsBool()},
		{"String", v.String(), w.String()},
		{"Display", v.Display(), w.Display()},
		{"Truthy", v.Truthy(), w.Truthy()},
		{"Key", v.Key(), w.Key()},
		{"hkey", v.hkey(), w.hkey()},
	} {
		if p.got != p.want {
			return fmt.Errorf("%s: %#v, want %#v", p.name, p.got, p.want)
		}
	}
	return nil
}

// checkTwins holds the 32-byte cells a and b to their wide twins wa and
// wb: every accessor and Coerce to every kind of each, and Equal,
// Compare and AppendRowJSON of the pair.
func checkTwins(t *testing.T, a Value, wa wideValue, b Value, wb wideValue) {
	t.Helper()
	for _, c := range []struct {
		v Value
		w wideValue
	}{{a, wa}, {b, wb}} {
		if err := sameValue(c.v, c.w); err != nil {
			t.Fatalf("%v: %v", c.w, err)
		}
		for k := KindNull; k <= KindBool; k++ {
			got, err := Coerce(c.v, k)
			want, wantErr := wideCoerce(c.w, k)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("Coerce(%v, %v): error %v, want %v", c.w, k, err, wantErr)
			}
			if err := sameValue(got, want); err != nil {
				t.Fatalf("Coerce(%v, %v): %v", c.w, k, err)
			}
		}
	}
	if got, want := a.Equal(b), wa.Equal(wb); got != want {
		t.Fatalf("%v.Equal(%v) = %v, want %v", wa, wb, got, want)
	}
	if got, want := a.Compare(b), wa.Compare(wb); got != want {
		t.Fatalf("%v.Compare(%v) = %d, want %d", wa, wb, got, want)
	}
	got, err := AppendRowJSON([]byte("x"), Row{a, b})
	want, wantErr := wideRowJSON([]byte("x"), []wideValue{wa, wb})
	if string(got) != string(want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("AppendRowJSON(%v, %v) = %q, %v; want %q, %v", wa, wb, got, err, want, wantErr)
	}
}

// wideCorpus is the edge of every kind's payload: the int64 extremes,
// 2^53±1 and 2^60+{0,1,2}, which float64 cannot tell apart, ±0, NaNs with
// distinct payloads, ±Inf and subnormals, the empty string, invalid UTF-8
// and both bools.
func wideCorpus() [][2]any {
	var out [][2]any
	add := func(v Value, w wideValue) { out = append(out, [2]any{v, w}) }
	add(Null(), wNull())
	for _, i := range []int64{0, 1, -1, 2, math.MinInt64, math.MaxInt64, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1 << 60, 1<<60 + 1, 1<<60 + 2} {
		add(Int(i), wInt(i))
	}
	for _, bits := range []uint64{
		0, 1 << 63, // ±0
		0x7ff8000000000001, 0x7ff0000000000001, 0xfff8000000000000, 0x7fffffffffffffff, // NaNs
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
		math.Float64bits(2), math.Float64bits(0.5), math.Float64bits(1 << 53), math.Float64bits(1 << 60),
		math.Float64bits(-1e300), math.Float64bits(1e-7),
	} {
		f := math.Float64frombits(bits)
		add(Float(f), wFloat(f))
	}
	for _, s := range []string{"", "a", "O'Brien", "\xff\xfe", " 12 ", "true", "2.5", " <&>"} {
		add(Str(s), wStr(s))
	}
	add(Bool(true), wBool(true))
	add(Bool(false), wBool(false))
	return out
}

func TestValueIs32Bytes(t *testing.T) {
	if got := reflect.TypeFor[Value]().Size(); got != 32 {
		t.Fatalf("Value is %d bytes, want 32", got)
	}
}

// TestValueMatchesWide: every pair of corpus cells, and seeded random
// pairs, behave as their wide twins.
func TestValueMatchesWide(t *testing.T) {
	corpus := wideCorpus()
	for _, a := range corpus {
		for _, b := range corpus {
			checkTwins(t, a[0].(Value), a[1].(wideValue), b[0].(Value), b[1].(wideValue))
		}
	}
	r := rand.New(rand.NewSource(28))
	randTwin := func() (Value, wideValue) {
		if r.Intn(3) == 0 {
			c := corpus[r.Intn(len(corpus))]
			return c[0].(Value), c[1].(wideValue)
		}
		return twin(uint8(r.Intn(5)), r.Int63()-r.Int63(), r.Uint64(), strconv.Itoa(r.Intn(40)-20))
	}
	for n := 0; n < 5000; n++ {
		a, wa := randTwin()
		b, wb := randTwin()
		checkTwins(t, a, wa, b, wb)
	}
}

func FuzzValueMatchesWide(f *testing.F) {
	f.Add(uint8(1), int64(math.MinInt64), uint64(1<<63), "", uint8(2), int64(1<<53+1), uint64(0x7ff8000000000001), "\xff")
	f.Add(uint8(2), int64(0), math.Float64bits(2), " 2 ", uint8(1), int64(2), uint64(1), "true")
	f.Add(uint8(3), int64(1<<60+1), uint64(0x000fffffffffffff), "1", uint8(4), int64(1), uint64(0xfff0000000000000), "O'Brien")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, sa string, kb uint8, ib int64, fb uint64, sb string) {
		a, wa := twin(ka, ia, fa, sa)
		b, wb := twin(kb, ib, fb, sb)
		checkTwins(t, a, wa, b, wb)
	})
}
