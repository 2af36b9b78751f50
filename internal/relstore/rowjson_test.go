package relstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// referenceRowJSON is the reflection-based row encoder AppendRowJSON
// replaced, kept verbatim as the oracle: AppendRowJSON must produce the
// same bytes, and fail on the same values with the same message.
func referenceRowJSON(r Row) ([]byte, error) {
	vals := make([]*serialValue, len(r))
	for i, v := range r {
		switch v.Kind() {
		case KindNull:
			vals[i] = nil
		case KindInt:
			s := strconv.FormatInt(v.AsInt(), 10)
			vals[i] = &serialValue{I: &s}
		case KindFloat:
			f := v.AsFloat()
			vals[i] = &serialValue{F: &f}
		case KindString:
			s := v.AsString()
			vals[i] = &serialValue{S: &s}
		case KindBool:
			b := v.AsBool()
			vals[i] = &serialValue{B: &b}
		default:
			return nil, fmt.Errorf("relstore: cannot serialize value of kind %v", v.Kind())
		}
	}
	return json.Marshal(vals)
}

// checkAgainstReference appends r after a non-empty prefix and requires the
// appended bytes to equal the oracle's, or both to fail with one message
// and the prefix to come back unextended.
func checkAgainstReference(t *testing.T, r Row) {
	t.Helper()
	prefix := []byte("prefix|")
	want, wantErr := referenceRowJSON(r)
	got, err := AppendRowJSON(append([]byte(nil), prefix...), r)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("row %v: error %v, want %v", r, err, wantErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("row %v: failed append extended dst to %q", r, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("row %v: %v", r, err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("row %v:\n got %q\nwant %q", r, got[len(prefix):], want)
	}
}

// Interesting values for the property test. The float list straddles
// encoding/json's exponent cutoffs at 1e-6 and 1e21.
var (
	edgeInts = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1<<53 + 1, -(1<<53 + 1), 1 << 53, -(1 << 53)}

	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e20, 123456.789,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		1e-7, 1e-10, 1.5e-300, 1e100,
	}

	// stringPieces are concatenated into random strings: every escape class
	// encoding/json knows, multi-byte runes, and lone or truncated UTF-8.
	stringPieces = []string{
		"a", "Z", "0", " ", "~", "plain", "\x7f",
		`"`, `\`, "<", ">", "&", "/",
		"\u2028", "\u2029", "é", "日本", "🎉", "\ufffd",
		"\xff", "\xfe", "\xc3", "\xe2\x80", "\xed\xa0\x80",
	}
)

// randFloat returns a finite float: an edge value, a subnormal, or a random
// bit pattern, each possibly negated.
func randFloat(r *rand.Rand) float64 {
	var f float64
	switch r.Intn(3) {
	case 0:
		f = edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		f = math.Float64frombits(r.Uint64() & (1<<52 - 1)) // subnormal
	default:
		for f = math.NaN(); math.IsNaN(f) || math.IsInf(f, 0); {
			f = math.Float64frombits(r.Uint64())
		}
	}
	if r.Intn(2) == 0 {
		f = -f
	}
	return f
}

// randJSONString builds a string from random pieces, control bytes and
// arbitrary bytes.
func randJSONString(r *rand.Rand) string {
	var b []byte
	for n := r.Intn(8); n > 0; n-- {
		switch r.Intn(4) {
		case 0:
			b = append(b, byte(r.Intn(0x20))) // control byte
		case 1:
			b = append(b, byte(r.Intn(256)))
		default:
			b = append(b, stringPieces[r.Intn(len(stringPieces))]...)
		}
	}
	return string(b)
}

// TestAppendRowJSONMatchesReference is the seeded property test: over random
// rows of every kind, many of them mostly NULL, AppendRowJSON appends the
// oracle's exact bytes.
func TestAppendRowJSONMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for i := 0; i < 20000; i++ {
		nullShare := r.Float64() // some rows nearly all NULL, some none
		row := make(Row, r.Intn(9))
		for c := range row {
			if r.Float64() < nullShare {
				continue // the zero Value is NULL
			}
			switch r.Intn(4) {
			case 0:
				if r.Intn(2) == 0 {
					row[c] = Int(edgeInts[r.Intn(len(edgeInts))])
				} else {
					row[c] = Int(int64(r.Uint64()))
				}
			case 1:
				row[c] = Float(randFloat(r))
			case 2:
				row[c] = Str(randJSONString(r))
			default:
				row[c] = Bool(r.Intn(2) == 0)
			}
		}
		checkAgainstReference(t, row)
	}
	for b := 0; b < 256; b++ { // every byte alone, each control byte included
		checkAgainstReference(t, Row{Str(string([]byte{byte(b)}))})
	}
}

// TestAppendRowJSONRejectsNonFinite: NaN and ±Inf fail exactly as the
// oracle fails, wherever they sit in the row.
func TestAppendRowJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAgainstReference(t, Row{Float(f)})
		checkAgainstReference(t, Row{Int(1), Str("x"), Null(), Float(f), Bool(true)})
	}
	if _, err := AppendRowJSON(nil, Row{Float(math.NaN())}); err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("NaN error = %v", err)
	}
}

func FuzzAppendRowJSON(f *testing.F) {
	f.Add(int64(0), 0.0, "")
	f.Add(int64(math.MinInt64), 1e-7, `<a href="x">&amp;</a>`)
	f.Add(int64(1<<53+1), 1e21, "\u2028\xff\x00é")
	f.Add(int64(-1), math.Nextafter(1e-6, 0), "\b\f\n\r\t\\")
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string) {
		checkAgainstReference(t, Row{Int(i), Float(fl), Str(s), Null(), Bool(i%2 == 0)})
	})
}

// TestAppendRowJSONAllocFree: a row of NULL, int, float, bool and plain
// ASCII strings appends into spare capacity without allocating.
func TestAppendRowJSONAllocFree(t *testing.T) {
	row := Row{Null(), Int(-1234567), Float(0.25), Bool(true), Str("CORI"), Str("Moderate smoker"), Bool(false)}
	buf := make([]byte, 0, 256)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = AppendRowJSON(buf[:0], row)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("AppendRowJSON allocated %.1f times per row, want 0", allocs)
	}
}

// studyShapedTable builds an n-row table shaped like a served study's
// warehouse table: entity key, contributor, a nullable classified text
// column and a nullable flag, with the contributor index.
func studyShapedTable(tb testing.TB, n int) *Table {
	tb.Helper()
	s, err := NewSchema(
		Column{Name: "EntityKey", Type: KindInt, NotNull: true},
		Column{Name: "Contributor", Type: KindString, NotNull: true},
		Column{Name: "Smoking_D3", Type: KindString},
		Column{Name: "Hypoxia_D1", Type: KindBool},
	)
	if err != nil {
		tb.Fatal(err)
	}
	t := NewTable("Study_reference", s)
	if err := t.CreateIndex("Contributor"); err != nil {
		tb.Fatal(err)
	}
	contributors := []string{"CORI", "EndoSoft", "MedRecord", "Notes"}
	smoking := []Value{Null(), Str("Heavy"), Str("Light"), Str("Moderate"), Str("Never")}
	for i := 0; i < n; i++ {
		hyp := Bool(i%3 == 0)
		if i%7 == 0 {
			hyp = Null()
		}
		if err := t.Insert(Row{Int(int64(i / 4)), Str(contributors[i%4]), smoking[i%5], hyp}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// TestWriteTypedSegmentedAllocs: encoding a generation-sized table costs a
// bounded number of allocations — buffer growth and the header — not a few
// per row, and it writes what the free function writes for t.Rows().
func TestWriteTypedSegmentedAllocs(t *testing.T) {
	table := studyShapedTable(t, 20000)
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		err = table.WriteTypedSegmented(io.Discard, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs >= 100 {
		t.Fatalf("(*Table).WriteTypedSegmented of 20000 rows allocated %.0f times, want < 100", allocs)
	}
	var fromTable, fromRows bytes.Buffer
	if err := table.WriteTypedSegmented(&fromTable, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteTypedSegmented(&fromRows, table.Rows(), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromTable.Bytes(), fromRows.Bytes()) {
		t.Fatal("(*Table).WriteTypedSegmented and WriteTypedSegmented(t.Rows()) disagree")
	}
}
