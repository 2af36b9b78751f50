// Package etl implements the ETL workflow substrate the paper compiles
// studies into (Section 4.1, Figure 6): reusable components that each
// execute one query over the previous component's results, chained through
// temporary databases, with the final load unioning contributors into the
// study output. "Thus, we can leverage existing ETL and still offer the
// flexibility that analysts require."
//
// # Execution
//
// A Workflow is a DAG of Steps. Workflow.Execute runs it under a
// RunPolicy — per-step retry with backoff, per-step and per-workflow
// deadlines, and, with ContinueOnError, graceful degradation: a failed
// contributor chain is pruned, its transitive dependents are skipped,
// and a degradable load step (Union) runs on the surviving inputs. The
// outcome of every step lands in a RunReport. Execute is the one engine:
// Compiled.Run is its serial, empty-policy shorthand and
// Compiled.RunResilient its policy run.
//
// # Refresh
//
// Compiled.Refresh patches a study's output into a warehouse table. A
// full refresh runs the compiled workflow over every key; a delta runs
// the same workflow with a key scope — each contributor's extract reads
// only the keys its change journal recorded past the study's cursor.
// Both run under the caller's RunPolicy and end in one group-wise patch
// per contributor, so a delta is observationally a full refresh of the
// changed entities.
//
// # Observability
//
// Execution is instrumented through guava/internal/obs. When the
// incoming context carries an observer (obs.WithObserver), Execute
// opens a "workflow <name>" span and nests a "step <id>" span per step
// and an "attempt <n>" span per try beneath it; skipped steps get
// instant spans naming their failed ancestors, and degraded steps
// record the inputs they dropped. Components annotate the current span
// with rows.in/rows.out and feed the same numbers to the run's metrics
// registry. Without an observer every hook is a nil-safe no-op.
package etl

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/relstore"
)

// recordIO notes a component's row flow on the current span (the
// attempt span when the run is observed) and on the run's metrics
// registry. Both sides are no-ops without an observer.
func recordIO(ctx context.Context, rowsIn, rowsOut int) {
	m := obs.MetricsFrom(ctx)
	m.Counter("etl.rows.in").Add(int64(rowsIn))
	m.Counter("etl.rows.out").Add(int64(rowsOut))
	obs.CurrentSpan(ctx).SetAttr(obs.Int("rows.in", int64(rowsIn)), obs.Int("rows.out", int64(rowsOut)))
}

// Context carries the named databases a workflow operates over. Workflows
// create temporary databases on demand. Contexts are safe for concurrent
// use, so independent workflow steps can run in parallel.
type Context struct {
	// scope limits each Extract to the instance keys listed for its source
	// database (see Compiled.Refresh). A source absent from it — or a nil
	// scope — reads every key. It belongs to one run and is fixed before
	// any step runs, never shared between runs of one plan.
	scope map[string][]relstore.Value

	mu  sync.Mutex
	dbs map[string]*relstore.DB
}

// NewContext builds a context pre-populated with the given databases.
func NewContext(dbs map[string]*relstore.DB) *Context {
	c := &Context{dbs: make(map[string]*relstore.DB, len(dbs))}
	for n, db := range dbs {
		c.dbs[n] = db
	}
	return c
}

// DB returns the named database, creating an empty one on first use (the
// paper's temporary DBs between ETL stages).
func (c *Context) DB(name string) *relstore.DB {
	c.mu.Lock()
	defer c.mu.Unlock()
	if db, ok := c.dbs[name]; ok {
		return db
	}
	db := relstore.NewDB(name)
	c.dbs[name] = db
	return db
}

// Has reports whether a database is registered.
func (c *Context) Has(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.dbs[name]
	return ok
}

// TableRef addresses one table in one database.
type TableRef struct {
	DB    string
	Table string
}

// String renders the reference as db.table.
func (r TableRef) String() string { return r.DB + "." + r.Table }

// read fetches the referenced table's stored rows in a fresh slice. The
// rows are shared with the table and must not be written into.
func (r TableRef) read(ctx *Context) (*relstore.Rows, error) {
	t, err := ctx.DB(r.DB).Table(r.Table)
	if err != nil {
		return nil, err
	}
	return t.Rows(), nil
}

// write materializes rows into the referenced table, creating it. The
// table takes the rows over without copying them, so a step's output rows
// move to the next step as they are.
func (r TableRef) write(ctx *Context, rows *relstore.Rows) error {
	db := ctx.DB(r.DB)
	if db.Has(r.Table) {
		if err := db.Drop(r.Table); err != nil {
			return err
		}
	}
	t, err := db.CreateTable(r.Table, rows.Schema)
	if err != nil {
		return err
	}
	return t.InsertAll(rows.Data)
}

// Component is one ETL step.
type Component interface {
	// Name returns a short component-kind name ("extract", "query", …).
	Name() string
	// Describe renders what the step does, for the analyst-facing plan.
	Describe() string
	// Run executes the step against env. Implementations must honor ctx
	// cancellation and deadlines: long-running or blocking work must return
	// (with ctx.Err()) promptly once ctx is done, or workflow-level
	// cancellation and timeouts cannot take effect.
	Run(ctx context.Context, env *Context) error
}

// degradable is implemented by components that can run with a subset of
// their declared inputs when upstream steps failed — Union drops the failed
// contributors and loads the survivors. unavailable is keyed by
// TableRef.String(). The second return is false when nothing useful remains.
type degradable interface {
	WithoutInputs(unavailable map[string]bool) (Component, bool)
}

// Extract reads a form's naive relation out of a contributor database
// through its pattern stack — the GUAVA stage of Figure 6 — and materializes
// it into a temporary table.
type Extract struct {
	// SourceDB names the contributor database.
	SourceDB string
	// Stack is the contributor's pattern configuration.
	Stack *patterns.Stack
	// Form is the form being extracted.
	Form patterns.FormInfo
	// To receives the naive relation.
	To TableRef
}

// Name implements Component.
func (*Extract) Name() string { return "extract" }

// Describe implements Component.
func (e *Extract) Describe() string {
	return fmt.Sprintf("extract %s from %s via pattern stack [%s] into %s",
		e.Form.Name, e.SourceDB, e.Stack.Describe(), e.To)
}

// Run implements Component.
func (e *Extract) Run(ctx context.Context, env *Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !env.Has(e.SourceDB) {
		return fmt.Errorf("etl: extract: unknown source database %q", e.SourceDB)
	}
	// The diverting read separates source-level misses (e.g. free-text
	// extraction failures, with report-span provenance) from the clean
	// relation; each is dead-lettered under the run's quarantine budget, or
	// fails the step when the run has none. A key-scoped run reads only its
	// keys.
	quar := quarantineFrom(ctx)
	rows, misses, err := e.Stack.ReadDiverting(ctx, env.DB(e.SourceDB), e.Form, env.scope[e.SourceDB])
	if err != nil {
		return fmt.Errorf("etl: extract %s: %w", e.Form.Name, err)
	}
	rowsIn := len(rows.Data) + len(misses)
	for _, m := range misses {
		rowKey := ""
		if !m.Key.IsNull() {
			rowKey = m.Key.Display()
		}
		src := sourceRef{kind: m.SourceKind, locator: m.Locator}
		if qerr := quar.add(ctx, m.Rule, m.Err, rowKey, "", src); qerr != nil {
			return qerr
		}
	}
	// Under a quarantine budget, rows whose key is missing are dead-lettered
	// at the source too, so one poison row cannot poison every downstream
	// stage. The read handed us its own slice, so the survivors compact in
	// place.
	if i := rows.Schema.Index(e.Form.KeyColumn); quar != nil && i >= 0 {
		kept := rows.Data[:0]
		for _, row := range rows.Data {
			if row[i].IsNull() {
				rerr := fmt.Errorf("extract %s: NULL key %s", e.Form.Name, e.Form.KeyColumn)
				src := dbRowRef(e.SourceDB, e.Form.Name)
				if qerr := quar.add(ctx, "extract", rerr, "", renderRow(row, rows.Schema), src); qerr != nil {
					return qerr
				}
				continue
			}
			kept = append(kept, row)
		}
		rows.Data = kept
	}
	recordIO(ctx, rowsIn, len(rows.Data))
	return e.To.write(env, rows)
}

// Query filters, derives, and projects one table into another — the middle
// stage of Figure 6, "each [component] executing a query over the previous
// one's results".
type Query struct {
	From TableRef
	// Where filters rows (nil keeps all).
	Where relstore.Pred
	// Derive, when non-empty, replaces the output columns with computed
	// ones; otherwise Project (or all columns) pass through.
	Derive []relstore.Derivation
	// Project keeps the named columns (nil keeps all); ignored when Derive
	// is set.
	Project []string
	// Distinct deduplicates output rows.
	Distinct bool
	// Require names output columns that must be non-NULL in every row.
	// A violating row fails the step — or, when the run policy grants a
	// quarantine budget, is diverted into the dead-letter relation while
	// the rest of the relation flows on. Compiled studies require the
	// contributor key and the derived entity key, so one poison row cannot
	// silently produce an unjoinable study tuple.
	Require []string
	To      TableRef
}

// Name implements Component.
func (*Query) Name() string { return "query" }

// Describe implements Component.
func (q *Query) Describe() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	switch {
	case len(q.Derive) > 0:
		parts := make([]string, len(q.Derive))
		for i, d := range q.Derive {
			parts[i] = d.Expr.SQL() + " AS " + d.Name
		}
		sb.WriteString(strings.Join(parts, ", "))
	case len(q.Project) > 0:
		sb.WriteString(strings.Join(q.Project, ", "))
	default:
		sb.WriteString("*")
	}
	sb.WriteString(" FROM " + q.From.String())
	if q.Where != nil {
		sb.WriteString(" WHERE " + q.Where.SQL())
	}
	if q.Distinct {
		sb.WriteString(" (DISTINCT)")
	}
	if len(q.Require) > 0 {
		sb.WriteString(" REQUIRE " + strings.Join(q.Require, ", "))
	}
	sb.WriteString(" INTO " + q.To.String())
	return sb.String()
}

// Run implements Component.
func (q *Query) Run(ctx context.Context, env *Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rows, err := q.From.read(env)
	if err != nil {
		return fmt.Errorf("etl: query from %s: %w", q.From, err)
	}
	rowsIn := len(rows.Data)
	var out *relstore.Rows
	if quar := quarantineFrom(ctx); quar != nil {
		// Row-at-a-time evaluation so a single poison row dead-letters
		// alone instead of failing the whole relation.
		out, err = q.runRowwise(ctx, quar, rows)
	} else {
		out, err = q.runBulk(rows)
	}
	if err != nil {
		return fmt.Errorf("etl: query %s: %w", q.From, err)
	}
	if q.Distinct {
		out = relstore.Distinct(out)
	}
	recordIO(ctx, rowsIn, len(out.Data))
	return q.To.write(env, out)
}

// reqCol resolves one Require column into the output schema.
type reqCol struct {
	name string
	idx  int
}

func requireCols(require []string, schema *relstore.Schema) ([]reqCol, error) {
	out := make([]reqCol, 0, len(require))
	for _, name := range require {
		i := schema.Index(name)
		if i < 0 {
			return nil, fmt.Errorf("required column %s not in output schema [%s]", name, schema.NameList())
		}
		out = append(out, reqCol{name: name, idx: i})
	}
	return out, nil
}

// runBulk is the historical whole-relation path: the first row error (or
// Require violation) fails the step.
func (q *Query) runBulk(rows *relstore.Rows) (*relstore.Rows, error) {
	rows, err := relstore.Select(rows, q.Where)
	if err != nil {
		return nil, err
	}
	switch {
	case len(q.Derive) > 0:
		rows, err = relstore.Derive(rows, q.Derive...)
	case len(q.Project) > 0:
		rows, err = relstore.Project(rows, q.Project...)
	}
	if err != nil {
		return nil, err
	}
	req, err := requireCols(q.Require, rows.Schema)
	if err != nil {
		return nil, err
	}
	for _, row := range rows.Data {
		for _, rc := range req {
			if row[rc.idx].IsNull() {
				return nil, fmt.Errorf("NULL in required column %s (row %s)",
					rc.name, renderRow(row, rows.Schema))
			}
		}
	}
	return rows, nil
}

// runRowwise evaluates the query one tuple at a time, diverting rows that
// fail the Where predicate's evaluation, a derivation, or a Require
// constraint into the quarantine — up to the policy budget, whose overflow
// error propagates as the step's failure.
func (q *Query) runRowwise(ctx context.Context, quar *quarantine, in *relstore.Rows) (*relstore.Rows, error) {
	var outSchema *relstore.Schema
	var err error
	var projIdx []int
	switch {
	case len(q.Derive) > 0:
		outSchema, err = relstore.DeriveSchema(q.Derive)
	case len(q.Project) > 0:
		outSchema, err = in.Schema.Project(q.Project...)
		if err == nil {
			projIdx = make([]int, len(q.Project))
			for i, name := range q.Project {
				projIdx[i] = in.Schema.Index(name)
			}
		}
	default:
		outSchema = in.Schema
	}
	if err != nil {
		return nil, err
	}
	req, err := requireCols(q.Require, outSchema)
	if err != nil {
		return nil, err
	}
	keyOf := func(row relstore.Row) string {
		// Best-effort row identity for the dead-letter relation: the first
		// required column present in the input, else the first column.
		for _, name := range q.Require {
			if i := in.Schema.Index(name); i >= 0 {
				return row[i].Display()
			}
		}
		if len(row) > 0 {
			return row[0].Display()
		}
		return ""
	}
	src := dbRowRef(q.From.DB, q.From.Table)
	out := &relstore.Rows{Schema: outSchema}
rowLoop:
	for _, row := range in.Data {
		if q.Where != nil {
			keep, werr := q.Where.Eval(row, in.Schema)
			if werr != nil {
				if qerr := quar.add(ctx, "where", werr, keyOf(row), renderRow(row, in.Schema), src); qerr != nil {
					return nil, qerr
				}
				continue
			}
			if !keep {
				continue
			}
		}
		outRow := row
		switch {
		case len(q.Derive) > 0:
			outRow, err = relstore.DeriveRow(q.Derive, row, in.Schema)
			if err != nil {
				if qerr := quar.add(ctx, "derive", err, keyOf(row), renderRow(row, in.Schema), src); qerr != nil {
					return nil, qerr
				}
				continue
			}
		case len(q.Project) > 0:
			nr := make(relstore.Row, len(projIdx))
			for i, j := range projIdx {
				nr[i] = row[j]
			}
			outRow = nr
		}
		for _, rc := range req {
			if outRow[rc.idx].IsNull() {
				rerr := fmt.Errorf("NULL in required column %s", rc.name)
				if qerr := quar.add(ctx, "require "+rc.name, rerr, keyOf(row), renderRow(row, in.Schema), src); qerr != nil {
					return nil, qerr
				}
				continue rowLoop
			}
		}
		out.Data = append(out.Data, outRow)
	}
	return out, nil
}

// Union concatenates same-schema tables into one — the load stage:
// "MultiClass simply unions together the results of ETL workflows from
// different contributors."
type Union struct {
	From []TableRef
	// Distinct switches from bag union to set union.
	Distinct bool
	To       TableRef
}

// Name implements Component.
func (*Union) Name() string { return "union" }

// Describe implements Component.
func (u *Union) Describe() string {
	parts := make([]string, len(u.From))
	for i, r := range u.From {
		parts[i] = r.String()
	}
	op := "UNION ALL"
	if u.Distinct {
		op = "UNION"
	}
	return fmt.Sprintf("%s(%s) INTO %s", op, strings.Join(parts, ", "), u.To)
}

// Run implements Component.
func (u *Union) Run(ctx context.Context, env *Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(u.From) == 0 {
		return fmt.Errorf("etl: union with no inputs")
	}
	all := make([]*relstore.Rows, 0, len(u.From))
	rowsIn := 0
	for _, ref := range u.From {
		rows, err := ref.read(env)
		if err != nil {
			return fmt.Errorf("etl: union input %s: %w", ref, err)
		}
		rowsIn += len(rows.Data)
		all = append(all, rows)
	}
	out, err := relstore.UnionAll(all...)
	if err != nil {
		return fmt.Errorf("etl: union: %w", err)
	}
	if u.Distinct {
		out = relstore.Distinct(out)
	}
	recordIO(ctx, rowsIn, len(out.Data))
	return u.To.write(env, out)
}

// WithoutInputs implements degradable: the load stage of a degraded study
// unions whichever contributor chains survived. It reports false when no
// input remains.
func (u *Union) WithoutInputs(unavailable map[string]bool) (Component, bool) {
	keep := make([]TableRef, 0, len(u.From))
	for _, r := range u.From {
		if !unavailable[r.String()] {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 {
		return nil, false
	}
	return &Union{From: keep, Distinct: u.Distinct, To: u.To}, true
}

// JoinStep equi-joins two tables — needed when a study pulls has-a children
// (Findings, Medications) alongside their parent entity.
type JoinStep struct {
	Left, Right       TableRef
	LeftCol, RightCol string
	RightPrefix       string
	To                TableRef
}

// Name implements Component.
func (*JoinStep) Name() string { return "join" }

// Describe implements Component.
func (j *JoinStep) Describe() string {
	return fmt.Sprintf("JOIN %s ON %s.%s = %s.%s INTO %s",
		j.Right, j.Left, j.LeftCol, j.Right, j.RightCol, j.To)
}

// Run implements Component.
func (j *JoinStep) Run(ctx context.Context, env *Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l, err := j.Left.read(env)
	if err != nil {
		return err
	}
	r, err := j.Right.read(env)
	if err != nil {
		return err
	}
	out, err := relstore.Join(l, r, j.LeftCol, j.RightCol, j.RightPrefix)
	if err != nil {
		return fmt.Errorf("etl: join: %w", err)
	}
	recordIO(ctx, len(l.Data)+len(r.Data), len(out.Data))
	return j.To.write(env, out)
}
