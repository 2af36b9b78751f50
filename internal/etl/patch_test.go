package etl

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"guava/internal/obs"
	"guava/internal/relstore"
)

// The typed patch is exact: over seeded random warehouses and fresh
// outputs, after patch the contributor's rows are the fresh rows as a
// multiset of AppendRowJSON lines, every other contributor is untouched,
// the stats match a reference that keys groups and rows by their bytes,
// and a second identical patch is a no-op.

var patchSchema = relstore.MustSchema(
	relstore.Column{Name: EntityKeyColumn, Type: relstore.KindInt, NotNull: true},
	relstore.Column{Name: ContributorColumn, Type: relstore.KindString, NotNull: true},
	relstore.Column{Name: "X", Type: relstore.KindFloat},
	relstore.Column{Name: "N", Type: relstore.KindInt},
	relstore.Column{Name: "S", Type: relstore.KindString},
)

const huge = int64(1) << 60 // past 2^53: neighbours share a float64

// patchKey draws an entity key: small ints, and ints past 2^53 that a
// float64 cannot tell apart.
func patchKey(r *rand.Rand) relstore.Value {
	if r.Intn(3) == 0 {
		return relstore.Int(huge + int64(r.Intn(4)))
	}
	return relstore.Int(int64(r.Intn(12)))
}

// patchCell draws the domain cells, biased towards the values an inexact
// comparison would confuse: -0 and +0, Int(2) and Float(2) in a REAL
// column, neighbouring ints past 2^53, and NULLs.
func patchCell(r *rand.Rand, col int) relstore.Value {
	if r.Intn(5) == 0 {
		return relstore.Null()
	}
	switch col {
	case 2:
		return []relstore.Value{relstore.Float(0), relstore.Float(math.Copysign(0, -1)),
			relstore.Float(2), relstore.Int(2), relstore.Float(0.5)}[r.Intn(5)]
	case 3:
		return relstore.Int(huge + int64(r.Intn(3)))
	default:
		return relstore.Str([]string{"a", "b"}[r.Intn(2)])
	}
}

func patchRow(r *rand.Rand, key relstore.Value, contributor string) relstore.Row {
	row := relstore.Row{key, relstore.Str(contributor), relstore.Null(), relstore.Null(), relstore.Null()}
	for c := 2; c < len(row); c++ {
		row[c] = patchCell(r, c)
	}
	return row
}

// patchGroups draws entity groups of one to three rows each.
func patchGroups(r *rand.Rand, contributor string) map[string][]relstore.Row {
	groups := map[string][]relstore.Row{}
	for n := r.Intn(10); n > 0; n-- {
		k := patchKey(r)
		if _, ok := groups[lineOf(relstore.Row{k})]; ok {
			continue
		}
		for m := 1 + r.Intn(3); m > 0; m-- {
			groups[lineOf(relstore.Row{k})] = append(groups[lineOf(relstore.Row{k})], patchRow(r, k, contributor))
		}
	}
	return groups
}

func lineOf(row relstore.Row) string {
	b, err := relstore.AppendRowJSON(nil, row)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// lines is the sorted multiset of rows' AppendRowJSON lines.
func lines(rows []relstore.Row) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = lineOf(row)
	}
	slices.Sort(out)
	return out
}

func contributorRows(t *testing.T, table *relstore.Table, contributor string) []relstore.Row {
	t.Helper()
	rows, err := table.Select(relstore.Eq(ContributorColumn, relstore.Str(contributor)))
	if err != nil {
		t.Fatal(err)
	}
	return rows.Data
}

// removedGroups names the (EntityKey, Contributor) groups of a report's
// Removed rows, once each.
func removedGroups(removed []relstore.Row) []relstore.Row {
	var groups []relstore.Row
	for _, row := range removed {
		g := relstore.Row{row[0], row[1]}
		if n := len(groups); n == 0 || lineOf(groups[n-1]) != lineOf(g) {
			groups = append(groups, g)
		}
	}
	return groups
}

func TestPatchExact(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	contributors := []string{"A", "B", "C"}
	for trial := 0; trial < 400; trial++ {
		table := relstore.NewTable("Study_p", patchSchema)
		if trial%2 == 0 {
			for _, col := range []string{EntityKeyColumn, ContributorColumn} {
				if err := table.CreateIndex(col); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The warehouse: every contributor's groups, in shuffled order.
		var stored []relstore.Row
		oldGroups := map[string][]relstore.Row{}
		for _, c := range contributors {
			for k, g := range patchGroups(r, c) {
				stored = append(stored, g...)
				if c == "B" {
					oldGroups[k] = g
				}
			}
		}
		r.Shuffle(len(stored), func(i, j int) { stored[i], stored[j] = stored[j], stored[i] })
		if err := table.InsertAll(stored); err != nil {
			t.Fatal(err)
		}

		// B's fresh output: each old group kept (reshuffled), changed in
		// one cell, regrown, or dropped, plus new groups.
		freshGroups := map[string][]relstore.Row{}
		for k, g := range oldGroups {
			switch r.Intn(4) {
			case 0:
				freshGroups[k] = slices.Clone(g)
			case 1:
				ng := make([]relstore.Row, len(g))
				for i, row := range g {
					ng[i] = row.Clone()
				}
				c := 2 + r.Intn(3)
				ng[r.Intn(len(ng))][c] = patchCell(r, c)
				freshGroups[k] = ng
			case 2:
				freshGroups[k] = append(slices.Clone(g), patchRow(r, g[0][0], "B"))
			}
		}
		for k, g := range patchGroups(r, "B") {
			if _, ok := freshGroups[k]; !ok {
				freshGroups[k] = g
			}
		}

		// Full mode covers every key; scoped mode a random subset, some of
		// it absent from both sides.
		var keys []relstore.Value
		inScope := func(string) bool { return true }
		if trial%3 == 0 {
			scoped := map[string]bool{}
			keys = []relstore.Value{}
			for n := r.Intn(8); n > 0; n-- {
				k := patchKey(r)
				if !scoped[lineOf(relstore.Row{k})] {
					scoped[lineOf(relstore.Row{k})] = true
					keys = append(keys, k)
				}
			}
			inScope = func(k string) bool { return scoped[k] }
		}
		var fresh, want []relstore.Row
		var ref RefreshStats
		for k, g := range freshGroups {
			if !inScope(k) {
				continue
			}
			fresh = append(fresh, g...)
			prev, ok := oldGroups[k]
			switch {
			case !ok:
				ref.Added += len(g)
			case slices.Equal(lines(prev), lines(g)):
				ref.Unchanged += len(g)
			default:
				ref.Updated += len(g)
			}
		}
		for k, g := range oldGroups {
			if !inScope(k) {
				want = append(want, g...)
			} else if _, ok := freshGroups[k]; !ok {
				ref.Removed += len(g)
			}
		}
		want = append(want, fresh...)
		ref.Total = len(fresh)
		r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		others := map[string][]string{}
		for _, c := range []string{"A", "C"} {
			others[c] = lines(contributorRows(t, table, c))
		}

		before := table.Clone()
		report := &RefreshReport{}
		stats, err := patch(table, "B", slices.Clone(fresh), keys, report)
		if err != nil {
			t.Fatal(err)
		}
		if stats != ref {
			t.Fatalf("trial %d: stats %+v, want %+v", trial, stats, ref)
		}
		// The report holds the patch: replayed over the table the patch
		// started from, its groups and rows leave the same rows.
		var wantRemoved []relstore.Row
		for k, g := range oldGroups {
			if ng, ok := freshGroups[k]; inScope(k) && (!ok || !slices.Equal(lines(g), lines(ng))) {
				wantRemoved = append(wantRemoved, g...)
			}
		}
		if got, want := lines(report.Removed), lines(wantRemoved); !slices.Equal(got, want) {
			t.Fatalf("trial %d: report removed\n%v\nwant\n%v", trial, got, want)
		}
		if len(report.Inserted) != stats.Added+stats.Updated {
			t.Fatalf("trial %d: report inserted %d rows, stats %+v", trial, len(report.Inserted), stats)
		}
		if err := ApplyPatch(before, removedGroups(report.Removed), report.Inserted); err != nil {
			t.Fatal(err)
		}
		if got, want := lines(before.Rows().Data), lines(table.Rows().Data); !slices.Equal(got, want) {
			t.Fatalf("trial %d: replayed patch holds\n%v\nthe patched table\n%v", trial, got, want)
		}
		if got := lines(contributorRows(t, table, "B")); !slices.Equal(got, lines(want)) {
			t.Fatalf("trial %d: B holds\n%v\nwant\n%v", trial, got, lines(want))
		}
		for c, before := range others {
			if got := lines(contributorRows(t, table, c)); !slices.Equal(got, before) {
				t.Fatalf("trial %d: patching B changed %s", trial, c)
			}
		}
		again, err := patch(table, "B", fresh, keys, &RefreshReport{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Added != 0 || again.Updated != 0 || again.Removed != 0 {
			t.Fatalf("trial %d: second patch = %+v, want a no-op", trial, again)
		}
	}
}

// TestRefreshPatchSpans: a traced full refresh opens one "patch
// <contributor>" span per patched contributor under its refresh span,
// carrying that contributor's row fates.
func TestRefreshPatchSpans(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	ctx := obs.WithObserver(context.Background(), o)
	report, err := compiled.Refresh(ctx, relstore.NewDB("warehouse"), RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var refreshID int64
	patches := map[string]*obs.Span{}
	for _, s := range o.Tracer.Spans() {
		if s.Name() == "refresh "+spec.Name {
			refreshID = s.ID()
		}
	}
	for _, s := range o.Tracer.Spans() {
		for _, ct := range spec.Contributors {
			if s.Name() != "patch "+ct.Name {
				continue
			}
			if patches[ct.Name] != nil {
				t.Fatalf("two patch spans for %s", ct.Name)
			}
			if s.ParentID() != refreshID {
				t.Errorf("patch %s hangs off span %d, want the refresh span %d", ct.Name, s.ParentID(), refreshID)
			}
			patches[ct.Name] = s
		}
	}
	if len(patches) != len(report.ByContributor) || len(patches) != len(spec.Contributors) {
		t.Fatalf("%d patch spans for %d patched contributors", len(patches), len(report.ByContributor))
	}
	for name, s := range patches {
		st := report.ByContributor[name]
		for key, want := range map[string]int{"added": st.Added, "updated": st.Updated, "unchanged": st.Unchanged, "removed": st.Removed} {
			if got, _ := s.Attr(key); got != int64(want) {
				t.Errorf("patch %s %s = %v, want %d", name, key, got, want)
			}
		}
	}
}
