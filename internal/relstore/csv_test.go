package relstore

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	in := sampleRows(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV(&buf, in.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("round trip rows = %d, want %d", out.Len(), in.Len())
	}
	for i := range in.Data {
		if !out.Data[i].Equal(in.Data[i]) {
			t.Errorf("row %d: %v != %v", i, out.Data[i], in.Data[i])
		}
	}
}

func TestReadCSVHeaderValidation(t *testing.T) {
	s := MustSchema(Column{Name: "A", Type: KindInt}, Column{Name: "B", Type: KindString})
	if _, err := readCSV(strings.NewReader("A,WRONG\n1,x\n"), s); err == nil {
		t.Error("wrong header name must fail")
	}
	if _, err := readCSV(strings.NewReader("A\n1\n"), s); err == nil {
		t.Error("wrong header arity must fail")
	}
	if _, err := readCSV(strings.NewReader("A,B\nnotanint,x\n"), s); err == nil {
		t.Error("uncoercible field must fail")
	}
	out, err := readCSV(strings.NewReader("A,B\n7,hello\n,\n"), s)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Data[0].Equal(Row{Int(7), Str("hello")}) {
		t.Errorf("row = %v", out.Data[0])
	}
	if !out.Data[1][0].IsNull() || !out.Data[1][1].IsNull() {
		t.Error("empty fields must read as NULL")
	}
}
