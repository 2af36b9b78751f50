package patterns

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"guava/internal/relstore"
)

// refDelimitedDecode is Delimited.Decode as it was before it resolved its
// columns once per call and sliced segments out of the packed string, kept
// verbatim (its splitter and unescaper included) as the oracle of
// TestDelimitedDecodeMatchesReference.
func refDelimitedDecode(d *Delimited, outer FormInfo, rows *relstore.Rows) (*relstore.Rows, error) {
	unescape := func(s string) (relstore.Value, error) {
		if s == "" {
			return relstore.Null(), nil
		}
		if s == `\e` {
			return relstore.Str(""), nil
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
	splitPacked := func(s string) []string {
		var segs []string
		var cur strings.Builder
		sep := d.sep()
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				cur.WriteByte(s[i])
				cur.WriteByte(s[i+1])
				i++
				continue
			}
			if strings.HasPrefix(s[i:], sep) {
				segs = append(segs, cur.String())
				cur.Reset()
				i += len(sep) - 1
				continue
			}
			cur.WriteByte(s[i])
		}
		segs = append(segs, cur.String())
		return segs
	}
	packedIdx := rows.Schema.Index(d.Into)
	if packedIdx < 0 {
		return nil, fmt.Errorf("delimited: packed column %q missing from read", d.Into)
	}
	data := make([]relstore.Row, len(rows.Data))
	for r, row := range rows.Data {
		nr := make(relstore.Row, outer.Schema.Arity())
		for i, c := range outer.Schema.Columns {
			if j := rows.Schema.Index(c.Name); j >= 0 && c.Name != d.Into {
				nr[i] = row[j]
			}
		}
		packed := row[packedIdx]
		if !packed.IsNull() {
			segs := splitPacked(packed.AsString())
			if len(segs) != len(d.Columns) {
				return nil, fmt.Errorf("delimited: packed value %q has %d segments, want %d", packed.AsString(), len(segs), len(d.Columns))
			}
			for i, col := range d.Columns {
				v, err := unescape(segs[i])
				if err != nil {
					return nil, err
				}
				nr[outer.Schema.Index(col)] = v
			}
		}
		data[r] = nr
	}
	return &relstore.Rows{Schema: outer.Schema, Data: data}, nil
}

// TestDelimitedDecodeMatchesReference: over seeded relations of packed
// values, Decode returns the rows, kinds and error texts the reference
// decode returns. Packed values are either well-formed encodings of
// answers built from separators, backslashes, "e" and empty strings, or
// raw strings over the same alphabet, which bring escaped separators, \e
// inside a segment, empty segments, a trailing lone backslash and wrong
// segment counts.
func TestDelimitedDecodeMatchesReference(t *testing.T) {
	form, _ := testForm(t)
	r := rand.New(rand.NewSource(28))
	for _, sep := range []string{"", ";", "||"} {
		d := &Delimited{Into: "packed", Columns: []string{"Smoking", "Alcohol"}, Sep: sep}
		inner, err := d.Adapt(form)
		if err != nil {
			t.Fatal(err)
		}
		pieces := []string{d.sep(), `\`, "e", `\e`, "a", "b", " ", "|", ";"}
		randStr := func(max int) string {
			var sb strings.Builder
			for n := r.Intn(max + 1); n > 0; n-- {
				sb.WriteString(pieces[r.Intn(len(pieces))])
			}
			return sb.String()
		}
		for trial := 0; trial < 300; trial++ {
			rows := &relstore.Rows{Schema: inner.Schema}
			for i := r.Intn(12); i > 0; i-- {
				outerRow := make(relstore.Row, form.Schema.Arity())
				outerRow[0] = relstore.Int(int64(i))
				for _, col := range d.Columns {
					if r.Intn(4) > 0 {
						outerRow[form.Schema.Index(col)] = relstore.Str(randStr(4))
					}
				}
				row, err := d.Encode(nil, form, inner, outerRow)
				if err != nil {
					t.Fatal(err)
				}
				if r.Intn(8) == 0 {
					row[inner.Schema.Index(d.Into)] = relstore.Str(randStr(6))
				}
				rows.Data = append(rows.Data, row)
			}
			want, wantErr := refDelimitedDecode(d, form, rows)
			got, err := d.Decode(nil, form, inner, rows)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("sep %q trial %d: error %v, want %v", sep, trial, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !got.Schema.Equal(want.Schema) || len(got.Data) != len(want.Data) {
				t.Fatalf("sep %q trial %d: %d rows of (%s), want %d of (%s)", sep, trial,
					len(got.Data), got.Schema.NameList(), len(want.Data), want.Schema.NameList())
			}
			for i := range want.Data {
				for c := range want.Data[i] {
					if g, w := got.Data[i][c], want.Data[i][c]; g.Kind() != w.Kind() || !g.Equal(w) {
						t.Fatalf("sep %q trial %d row %d col %d: %v, want %v", sep, trial, i, c, g, w)
					}
				}
			}
		}
	}
}
