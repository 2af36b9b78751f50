package etl

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"guava/internal/obs"
	"guava/internal/relstore"
)

// The paper's warehouse receives contributor data periodically ("Data from
// the CORI software tool is periodically sent for inclusion in the CORI
// warehouse"). Refresh re-runs a compiled study and patches its output into
// a persistent warehouse table keyed by (Contributor, EntityKey): new
// entities insert, changed entities are replaced, unchanged entities are
// left alone — so annotations and downstream extracts can rely on stable
// history.
//
// A full refresh runs the study over every key. As the warehouse grows,
// that cost grows with it even when almost nothing changed, so a delta
// refresh runs the very same compiled workflow scoped to the keys each
// contributor's change journal recorded past its cursor (patterns.Journal).
// Both modes go through Workflow.Execute under the caller's RunPolicy —
// quarantine, retries, degradation, checkpoints and step spans alike — and
// both end in the same group-wise patch, so deltaRefresh(w, d) is
// observationally identical to fullRefresh(apply(w, d)).

// RefreshStats summarizes one warehouse refresh.
type RefreshStats struct {
	Added     int
	Updated   int
	Unchanged int
	Removed   int // warehouse rows deleted because their entity left the study output
	Total     int
}

// Changed reports whether the refresh wrote anything — the signal serving
// layers use to decide whether cached extracts are stale.
func (s RefreshStats) Changed() bool { return s.Added > 0 || s.Updated > 0 || s.Removed > 0 }

// String renders the stats for CLI output.
func (s RefreshStats) String() string {
	out := fmt.Sprintf("%d rows: %d added, %d updated, %d unchanged", s.Total, s.Added, s.Updated, s.Unchanged)
	if s.Removed > 0 {
		out += fmt.Sprintf(", %d removed", s.Removed)
	}
	return out
}

// add accumulates o into s.
func (s *RefreshStats) add(o RefreshStats) {
	s.Added += o.Added
	s.Updated += o.Updated
	s.Unchanged += o.Unchanged
	s.Removed += o.Removed
	s.Total += o.Total
}

// RefreshMode picks the keys a refresh recomputes.
type RefreshMode int

const (
	// FullRefresh runs the study over every key of every contributor.
	FullRefresh RefreshMode = iota
	// DeltaRefresh runs it over only the keys each contributor's change
	// journal recorded past its cursor.
	DeltaRefresh
)

// RefreshHooks are test seams around each contributor's warehouse patch.
// BeforeApply runs before any write lands; AfterApply runs after the patch
// but before the cursor advances — an error from either aborts the refresh
// with that contributor's cursor unmoved, so a resumed run re-reads and
// re-applies the same window (the patch is idempotent).
type RefreshHooks struct {
	BeforeApply func(contributor string) error
	AfterApply  func(contributor string) error
}

// RefreshOptions configures one Refresh.
type RefreshOptions struct {
	Mode RefreshMode
	// Policy governs the workflow run: retries, timeouts, quarantine,
	// checkpoints and contributor degradation.
	Policy RunPolicy
	// Cursors are the study's applied journal positions. A delta requires
	// them: it reads the journals past them. Either mode advances the
	// cursor of every contributor it patched to the journal position read
	// before the run, so an entry landing mid-run is picked up by the next
	// delta (re-applying what the run already saw is idempotent).
	Cursors *DeltaCursors
	// Hooks wrap each contributor's warehouse patch.
	Hooks RefreshHooks
}

// RefreshReport summarizes one refresh. For a delta, Added, Updated and
// Removed match what a full refresh over the same warehouse would report,
// while Unchanged and Total count only the rows re-derived (a full refresh
// also counts every untouched row).
type RefreshReport struct {
	Stats RefreshStats
	// Keys is the number of distinct changed instance keys a delta
	// consumed.
	Keys int
	// ByContributor breaks the stats down per patched contributor.
	ByContributor map[string]RefreshStats
	// Run is the workflow's report: per-step fates, quarantined rows,
	// degraded contributors. Nil when a delta found no changed key.
	Run *RunReport
	// Removed and Inserted are the patch itself, for full and delta alike:
	// every warehouse row of each (EntityKey, Contributor) group the
	// refresh replaced or removed, contributor by contributor in rowOrder,
	// and every row it inserted. They are stored rows and must not be
	// written into (see relstore.Table). ApplyPatch replays them.
	Removed  []relstore.Row
	Inserted []relstore.Row
}

// Refresh runs the study under opts.Policy and patches its output into the
// warehouse table "Study_<name>", creating it on first refresh. A delta
// scopes the run to the journal keys past each contributor's cursor (every
// contributor must then expose a DeltaSource, or ErrNoDeltaSource is
// returned), and a delta with no changed key runs nothing at all.
//
// The patch goes contributor by contributor (see patch). A contributor
// whose chain failed under ContinueOnError keeps its warehouse history and
// its cursor — its absence from the output means "didn't run", not "has
// no data" — so the next refresh re-reads it. In a delta, a contributor
// with no changed key is not patched either; its cursor just advances.
//
// The refresh runs inside a "refresh <study>" span ("refresh-delta
// <study>" for a delta) and publishes refresh.* (refresh.delta.*) counters
// into the metrics registry carried by ctx (obs.MetricsFrom), so the batch
// CLI and the serving daemon account refresh traffic the same way.
func (c *Compiled) Refresh(ctx context.Context, warehouse *relstore.DB, opts RefreshOptions) (_ *RefreshReport, err error) {
	delta := opts.Mode == DeltaRefresh
	spanName := "refresh "
	if delta {
		spanName = "refresh-delta "
	}
	ctx, span := obs.StartSpan(ctx, spanName+c.Spec.Name, obs.String("study", c.Spec.Name))
	defer func() { span.EndErr(err) }()

	scope, marks, err := c.journalWindow(opts)
	if err != nil {
		return nil, err
	}
	report := &RefreshReport{ByContributor: make(map[string]RefreshStats)}
	for _, keys := range scope {
		report.Keys += len(keys)
	}
	fresh := map[string][]relstore.Row{}
	degraded := map[string]bool{}
	if !delta || report.Keys > 0 {
		var rows *relstore.Rows
		rows, report.Run, err = c.run(ctx, opts.Policy, 0, scope)
		if err != nil {
			return nil, err
		}
		for _, r := range rows.Data {
			name := r[1].AsString()
			fresh[name] = append(fresh[name], r)
		}
		for _, name := range report.Run.DegradedContributors {
			degraded[name] = true
		}
	}

	outSchema, err := c.Spec.OutputSchema()
	if err != nil {
		return nil, err
	}
	table, err := warehouse.EnsureTable(c.Output.Table, outSchema)
	if err != nil {
		return nil, err
	}
	if delta {
		// A delta patch probes by entity key within a contributor; a table
		// in EntityKey order (a served generation) needs no index for that.
		for _, col := range []string{EntityKeyColumn, ContributorColumn} {
			if err := table.IndexUnlessClustered(col); err != nil {
				return nil, err
			}
		}
	}
	for _, ct := range c.Spec.Contributors {
		if degraded[ct.Name] {
			continue
		}
		if keys := scope[ct.Name]; !delta || len(keys) > 0 {
			if err := callHook(opts.Hooks.BeforeApply, ct.Name); err != nil {
				return nil, err
			}
			_, pspan := obs.StartSpan(ctx, "patch "+ct.Name)
			stats, err := patch(table, ct.Name, fresh[ct.Name], keys, report)
			pspan.SetAttr(obs.Int("added", int64(stats.Added)), obs.Int("updated", int64(stats.Updated)),
				obs.Int("unchanged", int64(stats.Unchanged)), obs.Int("removed", int64(stats.Removed)))
			pspan.EndErr(err)
			if err != nil {
				return nil, err
			}
			if err := callHook(opts.Hooks.AfterApply, ct.Name); err != nil {
				return nil, err
			}
			report.ByContributor[ct.Name] = stats
			report.Stats.add(stats)
		}
		if mark, ok := marks[ct.Name]; ok {
			opts.Cursors.Set(ct.Name, mark)
		}
	}

	s := report.Stats
	m := obs.MetricsFrom(ctx)
	if delta {
		m.Counter("refresh.delta.runs").Inc()
		m.Counter("refresh.delta.keys").Add(int64(report.Keys))
		m.Counter("refresh.delta.added").Add(int64(s.Added))
		m.Counter("refresh.delta.updated").Add(int64(s.Updated))
		m.Counter("refresh.delta.unchanged").Add(int64(s.Unchanged))
		m.Counter("refresh.delta.removed").Add(int64(s.Removed))
		if report.Keys == 0 {
			m.Counter("refresh.delta.empty").Inc()
		}
		span.SetAttr(obs.Int("keys", int64(report.Keys)))
	} else {
		m.Counter("refresh.runs").Inc()
		m.Counter("refresh.added").Add(int64(s.Added))
		m.Counter("refresh.updated").Add(int64(s.Updated))
		m.Counter("refresh.unchanged").Add(int64(s.Unchanged))
		m.Counter("refresh.removed").Add(int64(s.Removed))
	}
	span.SetAttr(obs.Int("added", int64(s.Added)), obs.Int("updated", int64(s.Updated)),
		obs.Int("unchanged", int64(s.Unchanged)), obs.Int("removed", int64(s.Removed)))
	return report, nil
}

// journalWindow reads, per contributor, the journal position its cursor
// advances to once the refresh patched it and — for a delta — the keys
// recorded past its current cursor, which scope the run. A full refresh
// has a nil scope (every key) and reads positions only when it has cursors
// to advance. Positions are read before the run, so anything the run sees
// is at or below them.
func (c *Compiled) journalWindow(opts RefreshOptions) (scope map[string][]relstore.Value, marks map[string]int64, err error) {
	delta := opts.Mode == DeltaRefresh
	if opts.Cursors == nil {
		if delta {
			return nil, nil, fmt.Errorf("etl: delta refresh of %q needs RefreshOptions.Cursors", c.Spec.Name)
		}
		return nil, nil, nil
	}
	marks = make(map[string]int64, len(c.Spec.Contributors))
	if delta {
		scope = make(map[string][]relstore.Value, len(c.Spec.Contributors))
	}
	for _, ct := range c.Spec.Contributors {
		src := ct.DeltaSource()
		switch {
		case src == nil && delta:
			return nil, nil, fmt.Errorf("etl: contributor %q: %w", ct.Name, ErrNoDeltaSource)
		case src == nil:
			continue
		case delta:
			keys, mark, err := src.ChangedSince(opts.Cursors.Get(ct.Name))
			if err != nil {
				return nil, nil, fmt.Errorf("etl: delta %q: %w", ct.Name, err)
			}
			scope[ct.Name], marks[ct.Name] = keys, mark
		default:
			mark, err := src.HighWaterMark()
			if err != nil {
				return nil, nil, fmt.Errorf("etl: journal position %q: %w", ct.Name, err)
			}
			marks[ct.Name] = mark
		}
	}
	return scope, marks, nil
}

// callHook runs a refresh hook when it is set.
func callHook(hook func(contributor string) error, contributor string) error {
	if hook == nil {
		return nil
	}
	return hook(contributor)
}

// patch applies one contributor's freshly derived rows to the warehouse
// table: the one patch full and delta refreshes share. keys scopes it — nil
// covers the contributor's whole history, otherwise only those entity
// keys' groups. The contributor's existing rows and its fresh rows are
// sorted by one total row order, entity key first (rowOrder), and merged
// in one pass: groups end where the entity key changes, and two groups are
// the same when their rows are the same cell for cell. An entity owning
// several rows (a has-a child join) therefore re-patches to a no-op
// whatever order the union produced them in: absent groups insert,
// identical groups stay, changed groups are replaced, and existing groups
// the run no longer produced (the entity was deprecated, or fell out of the
// selection) are removed, keeping the warehouse convergent with a
// from-scratch build. Every removal lands in one Delete and every new row
// in one InsertAll, which takes the rows over; both are appended to the
// report's Removed and Inserted. fresh is reordered in place.
func patch(table *relstore.Table, contributor string, fresh []relstore.Row, keys []relstore.Value, report *RefreshReport) (RefreshStats, error) {
	contrib := relstore.Str(contributor)
	var scope relstore.Pred = relstore.Eq(ContributorColumn, contrib)
	if keys != nil {
		scope = relstore.And(relstore.In(relstore.Col(EntityKeyColumn), keys...), scope)
	}
	existing, err := table.Select(scope)
	if err != nil {
		return RefreshStats{}, err
	}
	// Both sides arrive almost sorted — a published generation is in
	// canonical order, and the run's output is sorted — so the sorts are
	// close to linear.
	old := existing.Data
	slices.SortFunc(old, rowOrder)
	slices.SortFunc(fresh, rowOrder)

	stats := RefreshStats{Total: len(fresh)}
	var doomed []relstore.Value
	var toInsert []relstore.Row
	for i, j := 0, 0; i < len(old) || j < len(fresh); {
		var c int
		switch {
		case i == len(old):
			c = 1
		case j == len(fresh):
			c = -1
		default:
			c = cellOrder(old[i][0], fresh[j][0])
		}
		switch {
		case c < 0:
			n := groupLen(old[i:])
			doomed = append(doomed, old[i][0])
			report.Removed = append(report.Removed, old[i:i+n]...)
			stats.Removed += n
			i += n
		case c > 0:
			n := groupLen(fresh[j:])
			toInsert = append(toInsert, fresh[j:j+n]...)
			stats.Added += n
			j += n
		default:
			prev, group := old[i:i+groupLen(old[i:])], fresh[j:j+groupLen(fresh[j:])]
			if slices.EqualFunc(prev, group, func(a, b relstore.Row) bool { return rowOrder(a, b) == 0 }) {
				stats.Unchanged += len(group)
			} else {
				doomed = append(doomed, old[i][0])
				report.Removed = append(report.Removed, prev...)
				toInsert = append(toInsert, group...)
				stats.Updated += len(group)
			}
			i, j = i+len(prev), j+len(group)
		}
	}
	if err := deleteGroups(table, contrib, doomed); err != nil {
		return stats, err
	}
	if len(toInsert) > 0 {
		if err := table.InsertAll(toInsert); err != nil {
			return stats, err
		}
		report.Inserted = append(report.Inserted, toInsert...)
	}
	return stats, nil
}

// deleteGroups removes one contributor's entity groups — every row whose
// EntityKey is in keys — in one Delete.
func deleteGroups(table *relstore.Table, contributor relstore.Value, keys []relstore.Value) error {
	if len(keys) == 0 {
		return nil
	}
	_, err := table.Delete(relstore.And(relstore.In(relstore.Col(EntityKeyColumn), keys...),
		relstore.Eq(ContributorColumn, contributor)))
	return err
}

// ApplyPatch replays a refresh's patch on table: it deletes each
// (EntityKey, Contributor) group that groups names, as 2-cell rows, with
// one Delete per contributor, and then inserts rows in one InsertAll,
// which takes them over — the writes patch makes. Replaying the groups of
// a RefreshReport's Removed rows and its Inserted rows over the table the
// refresh patched leaves the rows the refresh left. A malformed group or
// an invalid row fails the call before the table changes.
func ApplyPatch(table *relstore.Table, groups, rows []relstore.Row) error {
	for _, r := range rows {
		if err := table.Schema().Validate(r); err != nil {
			return fmt.Errorf("etl: patch row: %w", err)
		}
	}
	var contributors []relstore.Value
	keys := map[string][]relstore.Value{}
	for _, g := range groups {
		if len(g) != 2 {
			return fmt.Errorf("etl: patch group has %d cells, want EntityKey and Contributor", len(g))
		}
		k := g[1].Key()
		if _, ok := keys[k]; !ok {
			contributors = append(contributors, g[1])
		}
		keys[k] = append(keys[k], g[0])
	}
	for _, c := range contributors {
		if err := deleteGroups(table, c, keys[c.Key()]); err != nil {
			return err
		}
	}
	if len(rows) == 0 {
		return nil
	}
	return table.InsertAll(rows)
}

// groupLen is the length of the entity group rows opens with: the run of
// rows sharing the first row's entity key, in rowOrder-sorted rows.
func groupLen(rows []relstore.Row) int {
	n := 1
	for n < len(rows) && cellOrder(rows[n][0], rows[0][0]) == 0 {
		n++
	}
	return n
}

// rowOrder orders rows cell by cell under cellOrder, so it calls two rows
// equal exactly when AppendRowJSON renders them to the same bytes.
func rowOrder(a, b relstore.Row) int {
	for k := range min(len(a), len(b)) {
		if c := cellOrder(a[k], b[k]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// cellOrder is a total order on cells that refines Value.Compare: it keeps
// every order Compare decides, and breaks Compare's ties by kind and then
// by a float's bit pattern, so it calls two cells equal exactly when they
// have the same kind and the same int64, float bits, string or bool — when
// AppendRowJSON renders them to the same bytes. A NaN, which Compare calls
// equal to every number, sorts after the other numbers.
func cellOrder(a, b relstore.Value) int {
	if a.IsNumeric() && b.IsNumeric() {
		if an, bn := isNaN(a), isNaN(b); an || bn {
			switch {
			case an && bn:
				return cmp.Compare(math.Float64bits(a.AsFloat()), math.Float64bits(b.AsFloat()))
			case an:
				return 1
			default:
				return -1
			}
		}
	}
	if c := a.Compare(b); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind(), b.Kind()); c != 0 {
		return c
	}
	if a.Kind() == relstore.KindFloat {
		return cmp.Compare(math.Float64bits(a.AsFloat()), math.Float64bits(b.AsFloat()))
	}
	return 0
}

func isNaN(v relstore.Value) bool { return v.Kind() == relstore.KindFloat && math.IsNaN(v.AsFloat()) }
