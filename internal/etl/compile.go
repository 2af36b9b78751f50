package etl

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"guava/internal/classifier"
	"guava/internal/gtree"
	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/provenance"
	"guava/internal/relstore"
)

// ColumnSpec selects one study-schema domain as an output column.
type ColumnSpec struct {
	// As names the output column (e.g. "Smoking_D3").
	As string
	// Attribute and Domain locate the representation in the study schema.
	Attribute, Domain string
	// Kind is the domain's value kind.
	Kind relstore.Kind
}

// ContributorPlan is everything the compiler needs for one data source: its
// database, g-tree, pattern stack, and the classifiers the analyst chose.
type ContributorPlan struct {
	// Name identifies the contributor (also written into the Contributor
	// column of the study output).
	Name string
	// DB is the contributor's physical database.
	DB *relstore.DB
	// Tree is the g-tree of the form being studied.
	Tree *gtree.Tree
	// Stack is the contributor's pattern configuration.
	Stack *patterns.Stack
	// Form is the form's naive-schema info.
	Form patterns.FormInfo
	// Entity is the entity classifier choosing which form instances become
	// study entities.
	Entity *classifier.Classifier
	// Classifiers maps output column names to the domain classifier chosen
	// for this contributor.
	Classifiers map[string]*classifier.Classifier
	// Condition is an optional extra filter over g-tree nodes ("conditions
	// similar to a WHERE clause in SQL to filter out unwanted data").
	Condition string
	// Cleaners are data-cleaning classifiers (Section 6 extension): records
	// matching any DISCARD rule are dropped before classification.
	Cleaners []*classifier.Classifier
}

// StudySpec is a complete study: the output columns and, per contributor,
// the artifacts that produce them. "A study comprises all of the decisions
// that a data analyst makes from the time a request arrives to when final
// statistical analyses are run."
type StudySpec struct {
	Name         string
	Columns      []ColumnSpec
	Contributors []*ContributorPlan
	// Log carries the study's annotations.
	Log *provenance.Log
}

// EntityKeyColumn and ContributorColumn are the fixed leading columns of
// every compiled study output.
const (
	EntityKeyColumn   = "EntityKey"
	ContributorColumn = "Contributor"
)

// OutputSchema is the study table's schema: entity key, contributor, then
// one column per selected domain.
func (s *StudySpec) OutputSchema() (*relstore.Schema, error) {
	cols := []relstore.Column{
		{Name: EntityKeyColumn, Type: relstore.KindInt, NotNull: true},
		{Name: ContributorColumn, Type: relstore.KindString, NotNull: true},
	}
	for _, c := range s.Columns {
		if c.As == "" {
			return nil, fmt.Errorf("etl: study %q has a column without a name", s.Name)
		}
		cols = append(cols, relstore.Column{Name: c.As, Type: c.Kind})
	}
	return relstore.NewSchema(cols...)
}

// Compiled is the result of compiling a study: the executable workflow, the
// location of the output, and the per-contributor bound artifacts for
// inspection (SQL/XQuery/Datalog emission, precision/recall analysis).
type Compiled struct {
	Spec     *StudySpec
	Workflow *Workflow
	// Output locates the study result table after Run.
	Output TableRef
	// EntityBinds and ColumnBinds expose the bound classifiers per
	// contributor (ColumnBinds is keyed contributor → output column).
	EntityBinds map[string]*classifier.Bound
	ColumnBinds map[string]map[string]*classifier.Bound
	// Conditions are the bound per-contributor filter predicates.
	Conditions map[string]relstore.Pred

	// fingerprint is the workflow's checkpoint identity, captured at
	// compile time — before any test instrumentation wraps the components
	// — so a crashed run and its resume agree on the key even when one of
	// them runs with fault injectors installed.
	fingerprint string
}

// Fingerprint is the compiled plan's checkpoint identity (see
// Workflow.Fingerprint), captured before any component wrapping.
func (c *Compiled) Fingerprint() string { return c.fingerprint }

// bindContributor resolves one contributor's classifiers, condition, and
// cleaners. The returned cond already incorporates the cleaners: it is
// "condition AND NOT discarded".
func (s *StudySpec) bindContributor(c *ContributorPlan) (entity *classifier.Bound, cols map[string]*classifier.Bound, cond relstore.Pred, err error) {
	if c.Entity == nil {
		return nil, nil, nil, fmt.Errorf("etl: contributor %q has no entity classifier", c.Name)
	}
	if !c.Entity.IsEntity {
		return nil, nil, nil, fmt.Errorf("etl: contributor %q: %q is not an entity classifier", c.Name, c.Entity.Name)
	}
	entity, err = c.Entity.Bind(c.Tree)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("etl: contributor %q: %w", c.Name, err)
	}
	cols = make(map[string]*classifier.Bound, len(s.Columns))
	for _, col := range s.Columns {
		cl, ok := c.Classifiers[col.As]
		if !ok {
			return nil, nil, nil, fmt.Errorf("etl: contributor %q has no classifier for column %q", c.Name, col.As)
		}
		if cl.IsEntity || cl.IsCleaner {
			return nil, nil, nil, fmt.Errorf("etl: contributor %q: %q cannot fill column %q (not a domain classifier)", c.Name, cl.Name, col.As)
		}
		b, err := cl.Bind(c.Tree)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("etl: contributor %q column %q: %w", c.Name, col.As, err)
		}
		cols[col.As] = b
	}
	cond = relstore.True
	if c.Condition != "" {
		p, _, err := classifier.BindCondition(c.Tree, c.Condition)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("etl: contributor %q condition: %w", c.Name, err)
		}
		cond = p
	}
	for _, cl := range c.Cleaners {
		if !cl.IsCleaner {
			return nil, nil, nil, fmt.Errorf("etl: contributor %q: %q is not a cleaning classifier", c.Name, cl.Name)
		}
		b, err := cl.Bind(c.Tree)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("etl: contributor %q cleaner %q: %w", c.Name, cl.Name, err)
		}
		cond = relstore.And(cond, relstore.Not(b.Selection()))
	}
	return entity, cols, cond, nil
}

// Compile translates the study into the three-stage ETL of Figure 6: per
// contributor, (1) extract the naive relation through GUAVA's pattern stack,
// (2) select entities and apply conditions, (3) classify into the study
// columns — then union all contributors into the study output.
func Compile(spec *StudySpec) (*Compiled, error) {
	return CompileTraced(context.Background(), spec)
}

// CompileTraced is Compile with tracing: when ctx carries an observer
// (obs.WithObserver), compilation opens a "compile <study>" span with
// one child per stage — "compile: bind <contributor>" for each
// contributor's classifier binding and "compile: lint" for the
// workflow self-check — so slow pattern stacks and rule binds show up
// in the same trace as the execution they feed.
func CompileTraced(ctx context.Context, spec *StudySpec) (_ *Compiled, err error) {
	ctx, span := obs.StartSpan(ctx, "compile "+spec.Name,
		obs.String("study", spec.Name), obs.Int("contributors", int64(len(spec.Contributors))))
	defer func() { span.EndErr(err) }()
	if len(spec.Contributors) == 0 {
		return nil, fmt.Errorf("etl: study %q has no contributors", spec.Name)
	}
	if _, err := spec.OutputSchema(); err != nil {
		return nil, err
	}
	out := &Compiled{
		Spec:        spec,
		Workflow:    &Workflow{Name: spec.Name},
		Output:      TableRef{DB: "study", Table: "Study_" + spec.Name},
		EntityBinds: make(map[string]*classifier.Bound),
		ColumnBinds: make(map[string]map[string]*classifier.Bound),
		Conditions:  make(map[string]relstore.Pred),
	}
	seen := map[string]bool{}
	var unionInputs []TableRef
	var unionDeps []string
	for _, c := range spec.Contributors {
		if seen[c.Name] {
			return nil, fmt.Errorf("etl: duplicate contributor %q", c.Name)
		}
		seen[c.Name] = true
		_, bindSpan := obs.StartSpan(ctx, "compile: bind "+c.Name, obs.String("contributor", c.Name))
		entity, cols, cond, err := spec.bindContributor(c)
		bindSpan.EndErr(err)
		if err != nil {
			return nil, err
		}
		out.EntityBinds[c.Name] = entity
		out.ColumnBinds[c.Name] = cols
		out.Conditions[c.Name] = cond

		srcDB := "source_" + c.Name
		tmp1 := TableRef{DB: "tmp1_" + c.Name, Table: c.Form.Name + "_naive"}
		tmp2 := TableRef{DB: "tmp2_" + c.Name, Table: c.Form.Name + "_selected"}

		extractID := out.Workflow.Add("extract/"+c.Name, &Extract{
			SourceDB: srcDB,
			Stack:    c.Stack,
			Form:     c.Form,
			To:       tmp1,
		})
		selectID := out.Workflow.Add("select/"+c.Name, &Query{
			From:    tmp1,
			Where:   relstore.And(entity.Selection(), cond),
			Require: []string{c.Form.KeyColumn},
			To:      tmp2,
		}, extractID)

		// Classify: entity key, contributor literal, then one CASE
		// expression per study column.
		derive := []relstore.Derivation{
			{Name: EntityKeyColumn, Type: relstore.KindInt, Expr: relstore.Col(c.Form.KeyColumn)},
			{Name: ContributorColumn, Type: relstore.KindString, Expr: relstore.Lit(relstore.Str(c.Name))},
		}
		for _, col := range spec.Columns {
			derive = append(derive, relstore.Derivation{Name: col.As, Type: col.Kind, Expr: cols[col.As].Case()})
		}
		classified := TableRef{DB: "tmp2_" + c.Name, Table: c.Form.Name + "_classified"}
		classifyID := out.Workflow.Add("classify/"+c.Name, &Query{
			From:    tmp2,
			Derive:  derive,
			Require: []string{EntityKeyColumn},
			To:      classified,
		}, selectID)
		unionInputs = append(unionInputs, classified)
		unionDeps = append(unionDeps, classifyID)
	}
	out.Workflow.Add("load/union", &Union{From: unionInputs, To: out.Output}, unionDeps...)
	_, lintSpan := obs.StartSpan(ctx, "compile: lint")
	err = out.Workflow.Lint()
	lintSpan.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("etl: compiled workflow failed self-check: %w", err)
	}
	out.fingerprint = out.Workflow.Fingerprint()
	return out, nil
}

// Run executes the compiled workflow serially under the empty policy.
// It returns the study output sorted on every column, contributor and
// entity key first, for stable display.
func (c *Compiled) Run() (*relstore.Rows, error) {
	rows, _, err := c.RunResilient(context.Background(), RunPolicy{}, 1)
	return rows, err
}

// newEnv builds the execution context: contributor databases register
// under "source_<name>"; temporary databases materialize on demand. scope
// maps contributor names to the instance keys their extracts read (nil
// reads every key).
func (c *Compiled) newEnv(scope map[string][]relstore.Value) *Context {
	dbs := make(map[string]*relstore.DB, len(c.Spec.Contributors))
	for _, ct := range c.Spec.Contributors {
		dbs["source_"+ct.Name] = ct.DB
	}
	env := NewContext(dbs)
	if scope != nil {
		env.scope = make(map[string][]relstore.Value, len(scope))
		for name, keys := range scope {
			// Copied non-nil: an empty scope reads nothing, not everything.
			env.scope["source_"+name] = append([]relstore.Value{}, keys...)
		}
	}
	return env
}

// readOutput fetches, conforms, and stably sorts the study output table.
// The sort keys on every column — contributor and entity key first, then
// the domain columns — so the returned relation is a pure function of the
// output's contents: a resumed run, a degraded run re-executed, and a fresh
// run produce byte-identical results regardless of union input order or
// scheduling.
func (c *Compiled) readOutput(env *Context) (*relstore.Rows, error) {
	rows, err := c.Output.read(env)
	if err != nil {
		return nil, err
	}
	outSchema, err := c.Spec.OutputSchema()
	if err != nil {
		return nil, err
	}
	rows, err = patterns.Conform(rows, outSchema)
	if err != nil {
		return nil, err
	}
	sortCols := []string{ContributorColumn, EntityKeyColumn}
	for _, col := range outSchema.Columns {
		if col.Name != ContributorColumn && col.Name != EntityKeyColumn {
			sortCols = append(sortCols, col.Name)
		}
	}
	return relstore.SortBy(rows, sortCols...)
}

// RunResilient executes the compiled workflow under a RunPolicy with the
// given worker bound, returning the study output together with the
// RunReport. With policy.ContinueOnError, a failing contributor chain no
// longer takes the study down: its steps are recorded as failed/skipped,
// the final load degrades to a union of the surviving contributors, and the
// report's DegradedContributors names what was lost. An error is returned
// only when no usable output exists at all — structural failure,
// cancellation, a fail-fast step error, or every contributor failing.
func (c *Compiled) RunResilient(ctx context.Context, policy RunPolicy, workers int) (*relstore.Rows, *RunReport, error) {
	return c.run(ctx, policy, workers, nil)
}

// run is RunResilient over a key scope (see newEnv): the same workflow,
// each extract reading only its contributor's scoped keys. A scoped run
// checkpoints under a key that digests the scope, so it never restores a
// full run's step tables, nor a full run a scoped one's.
func (c *Compiled) run(ctx context.Context, policy RunPolicy, workers int, scope map[string][]relstore.Value) (*relstore.Rows, *RunReport, error) {
	env := c.newEnv(scope)
	if policy.Checkpoint != nil {
		if policy.CheckpointKey == "" {
			// Key checkpoints by the plan compiled, not the components as
			// currently wrapped: fault injectors around a step must not
			// orphan the checkpoints the un-instrumented resume run will
			// look for.
			policy.CheckpointKey = c.fingerprint
		}
		if scope != nil {
			policy.CheckpointKey = scopedKey(policy.CheckpointKey, scope)
		}
	}
	report, err := c.Workflow.Execute(ctx, env, policy, workers)
	if report != nil {
		report.DegradedContributors = c.degradedContributors(report)
	}
	if err != nil {
		return nil, report, err
	}
	rows, err := c.readOutput(env)
	if err != nil {
		// Typically: every contributor failed, so the union never ran.
		if report.Err != nil {
			return nil, report, fmt.Errorf("etl: study %q produced no output (first failure: %v)", c.Spec.Name, report.Err)
		}
		return nil, report, err
	}
	return rows, report, nil
}

// degradedContributors extracts, from a run report, the contributors whose
// compiled chain (extract/select/classify step IDs of the form
// "<stage>/<contributor>") failed or was skipped.
func (c *Compiled) degradedContributors(r *RunReport) []string {
	names := map[string]bool{}
	for _, s := range r.Steps {
		if s.Status != StepFailed && s.Status != StepSkipped {
			continue
		}
		stage, name, ok := strings.Cut(s.ID, "/")
		if !ok {
			continue
		}
		switch stage {
		case "extract", "select", "classify":
			names[name] = true
		}
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DirectEval is the reference semantics for Hypothesis #3: evaluate the
// study by walking classifier rules directly over each contributor's naive
// relation, with no ETL compilation. Tests assert Run ≡ DirectEval.
func DirectEval(spec *StudySpec) (*relstore.Rows, error) {
	outSchema, err := spec.OutputSchema()
	if err != nil {
		return nil, err
	}
	var data []relstore.Row
	for _, c := range spec.Contributors {
		entity, cols, cond, err := spec.bindContributor(c)
		if err != nil {
			return nil, err
		}
		rows, err := c.Stack.Read(c.DB, c.Form)
		if err != nil {
			return nil, err
		}
		for _, r := range rows.Data {
			keep, err := entity.Selection().Eval(r, rows.Schema)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			keep, err = cond.Eval(r, rows.Schema)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			nr := make(relstore.Row, 0, outSchema.Arity())
			nr = append(nr, r[rows.Schema.Index(c.Form.KeyColumn)], relstore.Str(c.Name))
			for _, col := range spec.Columns {
				v, err := cols[col.As].Apply(r, rows.Schema)
				if err != nil {
					return nil, err
				}
				if !v.IsNull() && v.Kind() != col.Kind {
					v, err = relstore.Coerce(v, col.Kind)
					if err != nil {
						return nil, err
					}
				}
				nr = append(nr, v)
			}
			data = append(data, nr)
		}
	}
	out := &relstore.Rows{Schema: outSchema, Data: data}
	return relstore.SortBy(out, ContributorColumn, EntityKeyColumn)
}

// EmitSQLPlans renders the per-contributor SQL a compiled study represents,
// for analyst inspection, keyed by contributor name.
func (c *Compiled) EmitSQLPlans() (map[string]string, error) {
	out := make(map[string]string, len(c.EntityBinds))
	var names []string
	for n := range c.EntityBinds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var domains []*classifier.Bound
		for _, col := range c.Spec.Columns {
			domains = append(domains, c.ColumnBinds[n][col.As])
		}
		sql, err := classifier.EmitSQL(c.EntityBinds[n], domains)
		if err != nil {
			return nil, err
		}
		out[n] = sql
	}
	return out, nil
}
