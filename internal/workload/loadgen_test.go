package workload

import (
	"testing"
)

// TestExtractRequestsDeterministic: the same seed yields the same traffic,
// a different seed a different mix, and every request parses as a query
// over the reference study's real columns.
func TestExtractRequestsDeterministic(t *testing.T) {
	a := ExtractRequests("reference", 200, 7)
	b := ExtractRequests("reference", 200, 7)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("generated %d/%d requests, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("request %d diverges under one seed: %s vs %s", i, a[i], b[i])
		}
	}
	c := ExtractRequests("reference", 200, 8)
	same := 0
	for i := range a {
		if a[i].String() == c[i].String() {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traffic")
	}

	// The hot shape repeats — a result cache must be able to prove itself.
	counts := map[string]int{}
	for _, r := range a {
		counts[r.String()]++
	}
	max := 0
	for _, n := range counts {
		max = maxInt(max, n)
	}
	if max < 20 {
		t.Errorf("hottest request repeats only %d times in 200", max)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
