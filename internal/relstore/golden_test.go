package relstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenV2Path pins the v2 segment-file bytes: written once by the
// reflection-based encoding/json row encoder that AppendRowJSON replaced,
// and never regenerated, so any drift in row or header bytes fails here.
var goldenV2Path = filepath.Join("testdata", "golden-v2.rel")

// goldenV2SegRows cuts the 20 golden rows into segments of 7, 7 and 6.
const goldenV2SegRows = 7

// goldenV2Rows covers every kind, NULL in each nullable column, the integer
// extremes and the values just past float64's exact-integer range, the float
// formats on each side of encoding/json's 1e-6 and 1e21 exponent cutoffs,
// and each string escape class: control bytes, quote, backslash, the HTML
// characters, U+2028/U+2029, multi-byte runes and invalid UTF-8.
func goldenV2Rows(t testing.TB) *Rows {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "K", Type: KindInt, NotNull: true},
		Column{Name: "F", Type: KindFloat},
		Column{Name: "S", Type: KindString},
		Column{Name: "B", Type: KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &Rows{Schema: s, Data: []Row{
		{Int(0), Float(0), Str(""), Bool(false)},
		{Int(1), Float(math.Copysign(0, -1)), Str("plain ascii"), Bool(true)},
		{Int(-1), Null(), Null(), Null()},
		{Int(math.MinInt64), Float(1e-6), Str(`say "hi"`), Bool(true)},
		{Int(math.MaxInt64), Float(math.Nextafter(1e-6, 0)), Str(`back\slash`), Bool(false)},
		{Int(1<<53 + 1), Float(1e-7), Str("<b>&amp;</b>"), Null()},
		{Int(-(1<<53 + 1)), Float(1e21), Str("\x00\x01\x1f\x7f"), Bool(true)},
		{Int(42), Float(math.Nextafter(1e21, 0)), Str("\b\f\n\r\t"), Bool(false)},
		{Int(43), Float(-1e21), Str("line\u2028para\u2029end"), Null()},
		{Int(44), Float(-1e-7), Str("héllo 日本 🎉"), Bool(true)},
		{Int(45), Float(math.SmallestNonzeroFloat64), Str("bad\xffbyte"), Bool(false)},
		{Int(46), Float(math.MaxFloat64), Str("\xc3"), Null()},
		{Int(47), Float(1.5e-300), Str("NULL"), Bool(true)},
		{Int(48), Float(0.1), Str("null"), Bool(false)},
		{Int(49), Float(123456.789), Str(" spaces "), Null()},
		{Int(50), Float(-2.5), Str("tab\there"), Bool(true)},
		{Int(51), Float(1e20), Str("'single'"), Bool(false)},
		{Int(52), Float(2.2250738585072014e-308), Str("\u00e9\u0301"), Null()},
		{Int(53), Float(4.9406564584124654e-324 * 3), Str("{\"s\":1}"), Bool(true)},
		{Int(54), Float(-123e-9), Null(), Null()},
	}}
}

// TestGoldenV2 pins the on-disk v2 format: WriteTypedSegmented reproduces
// the golden file byte for byte, and ReadTyped — the reader of generation
// directories and warehouses written in v2 — reads it back equal.
func TestGoldenV2(t *testing.T) {
	want, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenV2Rows(t)

	var free bytes.Buffer
	if err := WriteTypedSegmented(&free, in, goldenV2SegRows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(free.Bytes(), want) {
		t.Fatalf("WriteTypedSegmented drifted from %s:\n got %q\nwant %q", goldenV2Path, free.Bytes(), want)
	}

	back, err := ReadTyped(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	// encoding/json decodes each invalid UTF-8 byte as U+FFFD; the golden
	// strings hold at most one invalid byte in a row.
	decoded := &Rows{Schema: in.Schema}
	for _, r := range in.Data {
		r = r.Clone()
		if r[2].Kind() == KindString {
			r[2] = Str(strings.ToValidUTF8(r[2].AsString(), "\uFFFD"))
		}
		decoded.Data = append(decoded.Data, r)
	}
	if err := strictRowsEq(back, decoded); err != nil {
		t.Fatalf("golden read-back: %v", err)
	}
}
