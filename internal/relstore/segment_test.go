package relstore

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSegmentedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, n := range []int{0, 1, 6, 7, 8, 100} {
		in := randRelation(r, n)
		var v2 bytes.Buffer
		if err := WriteTypedSegmented(&v2, in, 7); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTyped(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := strictRowsEq(back, in); err != nil {
			t.Fatalf("n=%d: v2 round trip: %v", n, err)
		}
		// Deterministic: the same relation writes the same bytes.
		var again bytes.Buffer
		if err := WriteTypedSegmented(&again, in, 7); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v2.Bytes(), again.Bytes()) {
			t.Fatalf("n=%d: v2 write not deterministic", n)
		}
		// v1 of the same relation still reads, and reads equal.
		var v1 bytes.Buffer
		if err := WriteTyped(&v1, in); err != nil {
			t.Fatal(err)
		}
		backV1, err := ReadTyped(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := strictRowsEq(backV1, back); err != nil {
			t.Fatalf("n=%d: v1 and v2 disagree: %v", n, err)
		}
		if n > 0 && v1.Bytes()[0] != '[' {
			t.Fatal("v1 must start with the schema array")
		}
		if v2.Bytes()[0] != '{' {
			t.Fatal("v2 must start with the header object")
		}
	}
}

func TestSegmentedChecksumDetectsCorruption(t *testing.T) {
	in := randRelation(rand.New(rand.NewSource(59)), 40)
	var buf bytes.Buffer
	if err := WriteTypedSegmented(&buf, in, 10); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one byte inside the last segment's block (well past the header).
	mut := append([]byte(nil), raw...)
	i := len(mut) - 10
	for mut[i] == '"' || mut[i] == '\n' { // keep the JSON parseable-looking
		i--
	}
	mut[i] ^= 0x01
	if _, err := ReadTyped(bytes.NewReader(mut)); err == nil {
		t.Fatal("corrupted segment read without error")
	} else if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "parse") {
		t.Fatalf("unexpected corruption error: %v", err)
	}
	// Truncated tail: a missing block is an error, not silent data loss.
	if _, err := ReadTyped(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("truncated segment file read without error")
	}
}
