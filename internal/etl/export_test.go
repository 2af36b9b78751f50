package etl

import (
	"testing"

	"guava/internal/patterns"
	"guava/internal/relstore"
)

// Hooks for the external etl_test package: the fault-injection and
// cancellation suites live outside the package so they can import
// guava/internal/etl/faulty (which imports etl) without an import cycle,
// and reuse the in-package fixtures through these exports.

// StudyFixtureForTest exposes the two-contributor study fixture.
func StudyFixtureForTest(t *testing.T) *StudySpec { return studyFixture(t) }

// PropStudySpecForTest exposes the randomized single-contributor study
// generator used by the property tests.
func PropStudySpecForTest(records []uint8, packs []int8, t1, t2 int8, surgeryOnly bool, stack *patterns.Stack) *StudySpec {
	return propStudySpec(records, packs, t1, t2, surgeryOnly, stack)
}

// StatsOf unpacks a refresh's stats for assertions.
func StatsOf(r *RefreshReport, err error) (RefreshStats, error) {
	if err != nil {
		return RefreshStats{}, err
	}
	return r.Stats, nil
}

// MergeForTest patches a whole study relation into table the way a full refresh
// does: every contributor present in the table or in fresh, except keep
// (contributors whose chain degraded), through the one per-contributor
// patch.
func MergeForTest(table *relstore.Table, fresh *relstore.Rows, keep ...string) (RefreshStats, error) {
	skip := map[string]bool{}
	for _, name := range keep {
		skip[name] = true
	}
	byContributor := map[string][]relstore.Row{}
	var names []string
	for _, rows := range [][]relstore.Row{table.Rows().Data, fresh.Data} {
		for _, r := range rows {
			name := r[1].AsString()
			if _, seen := byContributor[name]; !seen {
				names = append(names, name)
				byContributor[name] = nil
			}
		}
	}
	for _, r := range fresh.Data {
		byContributor[r[1].AsString()] = append(byContributor[r[1].AsString()], r)
	}
	var total RefreshStats
	for _, name := range names {
		if skip[name] {
			continue
		}
		stats, err := patch(table, name, byContributor[name], nil, &RefreshReport{})
		if err != nil {
			return total, err
		}
		total.add(stats)
	}
	return total, nil
}

// RenderRowForTest renders a row as the dead-letter relation's RowData.
func RenderRowForTest(row relstore.Row, schema *relstore.Schema) string {
	return renderRow(row, schema)
}
