package guava

import (
	"context"
	"fmt"
	"sort"
	"time"

	"guava/internal/classifier"
	"guava/internal/etl"
	"guava/internal/gquery"
	"guava/internal/gtree"
	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/provenance"
	"guava/internal/relstore"
	"guava/internal/ui"
	"guava/internal/vet"
)

// System is one GUAVA/MultiClass installation: registered contributors,
// defined studies, and the annotation trail every artifact carries.
type System struct {
	// Name labels the installation (e.g. the warehouse it feeds).
	Name string

	contributors map[string]*Contributor
	studies      map[string]*Study
}

// New creates an empty system.
func New(name string) *System {
	return &System{
		Name:         name,
		contributors: make(map[string]*Contributor),
		studies:      make(map[string]*Study),
	}
}

// Contributor is one registered data source: its form, pattern stack,
// database, and the automatically derived g-tree.
type Contributor struct {
	Name  string
	Form  *Form
	Info  FormInfo
	Stack *Stack
	DB    *DB
	Tree  *GTree
	// Log is the contributor's annotation history.
	Log provenance.Log
}

// RegisterContributor derives the g-tree from the form (Hypothesis #1),
// installs the pattern stack into the database when its tables are absent,
// and registers the source under the name.
func (s *System) RegisterContributor(name string, form *Form, stack *Stack, db *DB) (*Contributor, error) {
	if _, dup := s.contributors[name]; dup {
		return nil, fmt.Errorf("guava: contributor %q already registered", name)
	}
	if err := form.Validate(); err != nil {
		return nil, err
	}
	tree, err := gtree.Derive(name, 1, form)
	if err != nil {
		return nil, err
	}
	info, err := patterns.FromUIForm(form)
	if err != nil {
		return nil, err
	}
	if err := stack.Install(db, info); err != nil {
		return nil, err
	}
	c := &Contributor{Name: name, Form: form, Info: info, Stack: stack, DB: db, Tree: tree}
	s.contributors[name] = c
	return c, nil
}

// Contributor returns the named contributor.
func (s *System) Contributor(name string) (*Contributor, error) {
	c, ok := s.contributors[name]
	if !ok {
		return nil, fmt.Errorf("guava: no contributor %q", name)
	}
	return c, nil
}

// ContributorNames lists registered contributors, sorted.
func (s *System) ContributorNames() []string {
	out := make([]string, 0, len(s.contributors))
	for n := range s.contributors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Sink returns a data-entry sink writing through the contributor's pattern
// stack — what the simulated reporting tool submits into.
func (c *Contributor) Sink() ui.RecordSink {
	return &patterns.Sink{DB: c.DB, Stack: c.Stack}
}

// NewEntryFor starts a new data-entry session on the contributor's form
// with the given instance key.
func NewEntryFor(c *Contributor, key int64) (*Entry, error) {
	return ui.NewEntry(c.Form, key)
}

// Query runs a g-tree query against the contributor.
func (c *Contributor) Query(q *Query) (*Rows, error) {
	return q.Run(context.Background(), c.DB, c.Stack, c.Info)
}

// Aggregate runs a grouped-aggregate g-tree query against the contributor.
func (c *Contributor) Aggregate(q *gquery.AggregateQuery) (*Rows, error) {
	return q.Run(context.Background(), c.DB, c.Stack, c.Info)
}

// View reads the whole naive relation (the g-tree view).
func (c *Contributor) View() (*Rows, error) {
	return c.Stack.Read(c.DB, c.Info)
}

// Study is a compiled, runnable study with its provenance trail.
type Study struct {
	Name string
	// Log is the study's annotation history ("so that it is clear who
	// generated them, when, and why").
	Log *provenance.Log

	spec     *etl.StudySpec
	compiled *etl.Compiled
}

// Annotate appends a timestamped note to the study.
func (st *Study) Annotate(author, note string, at time.Time) {
	st.Log.Add(author, note, at)
}

// Run executes the study's generated ETL workflow and returns the output
// table.
func (st *Study) Run() (*Rows, error) { return st.compiled.Run() }

// DirectEval evaluates the study without ETL compilation (the Hypothesis #3
// reference semantics).
func (st *Study) DirectEval() (*Rows, error) { return etl.DirectEval(st.spec) }

// Refresh re-runs the study and patches its output into the warehouse
// table "Study_<name>" — the periodic-inclusion workflow of the CORI
// warehouse. opts picks a full or a journal-driven delta refresh and the
// RunPolicy both run under (retries, timeouts, quarantine, graceful
// degradation): a dead contributor's warehouse history is left untouched.
// Attach an Observer to ctx (obs.WithObserver) to trace the refresh and
// collect the refresh.* counters.
func (st *Study) Refresh(ctx context.Context, warehouse *DB, opts RefreshOptions) (*RefreshReport, error) {
	return st.compiled.Refresh(ctx, warehouse, opts)
}

// RunResilient executes the study under a fault-handling policy: per-step
// retry with deterministic backoff, per-step and per-workflow deadlines,
// and — with policy.ContinueOnError — graceful degradation, where a failing
// contributor chain is recorded and pruned while the surviving contributors
// are still unioned into the study output. The RunReport carries per-step
// attempts, durations, errors, skip causes, and the degraded-contributor
// list.
func (st *Study) RunResilient(ctx context.Context, policy etl.RunPolicy, workers int) (*Rows, *etl.RunReport, error) {
	return st.compiled.RunResilient(ctx, policy, workers)
}

// Plan renders the generated ETL workflow for inspection.
func (st *Study) Plan() string { return st.compiled.Workflow.Render() }

// Fingerprint is the study's checkpoint identity: a deterministic hash of
// the compiled plan (study, contributors, classifiers, dependencies) that
// a Checkpointer keys snapshots by. A crashed run and its resume share
// checkpoints exactly when their fingerprints match; any plan change
// invalidates prior checkpoints.
func (st *Study) Fingerprint() string { return st.compiled.Fingerprint() }

// SQL renders the per-contributor SQL the study represents.
func (st *Study) SQL() (map[string]string, error) { return st.compiled.EmitSQLPlans() }

// XQuery renders one contributor's fragment as XQuery, the paper's original
// translation target.
func (st *Study) XQuery(contributor string) (string, error) {
	for _, c := range st.spec.Contributors {
		if c.Name != contributor {
			continue
		}
		var domains []*Classifier
		for _, col := range st.spec.Columns {
			domains = append(domains, c.Classifiers[col.As])
		}
		return classifier.EmitXQuery(contributor+".xml", c.Entity, domains)
	}
	return "", fmt.Errorf("guava: study %q has no contributor %q", st.Name, contributor)
}

// Datalog renders one contributor's classifier for one column as Datalog.
func (st *Study) Datalog(contributor, column string) (string, error) {
	b, ok := st.compiled.ColumnBinds[contributor][column]
	if !ok {
		return "", fmt.Errorf("guava: no bound classifier for %s/%s", contributor, column)
	}
	return classifier.EmitDatalog(b, column)
}

// Classifiers lists the classifiers the study uses for a column, by
// contributor — the reuse surface: "the analyst may choose to look at other
// studies that use the same study schema to make informed decisions as to
// which classifiers to use".
func (st *Study) Classifiers(column string) map[string]*Classifier {
	out := make(map[string]*Classifier)
	for _, c := range st.spec.Contributors {
		if cl, ok := c.Classifiers[column]; ok {
			out[c.Name] = cl
		}
	}
	return out
}

// Spec exposes the underlying study specification (read-only use).
func (st *Study) Spec() *etl.StudySpec { return st.spec }

// Vet statically vets the study: every contributor's classifiers
// (satisfiability, shadowing, domain gaps, context-disabled guards), g-tree
// (enablement cycles, dead answer options), and the study wiring. The
// returned report is sorted; HasErrors() gates whether the study should run.
func (st *Study) Vet() *vet.Report { return vet.Study(st.spec, nil, nil) }

// VetStudy vets a previously built study by name.
func (s *System) VetStudy(name string) (*vet.Report, error) {
	st, err := s.Study(name)
	if err != nil {
		return nil, err
	}
	return st.Vet(), nil
}

// AnalyzeClassifier statically and dynamically analyzes the classifier one
// contributor uses for one column: threshold gaps and shadowed rules (when
// the classifier is a single-variable threshold list), plus rule coverage
// over the contributor's current data.
func (st *Study) AnalyzeClassifier(contributor, column string) (*classifier.IntervalReport, *classifier.SampleReport, error) {
	bound, ok := st.compiled.ColumnBinds[contributor][column]
	if !ok {
		return nil, nil, fmt.Errorf("guava: no classifier for %s/%s", contributor, column)
	}
	var plan *etl.ContributorPlan
	for _, c := range st.spec.Contributors {
		if c.Name == contributor {
			plan = c
		}
	}
	if plan == nil {
		return nil, nil, fmt.Errorf("guava: study %q has no contributor %q", st.Name, contributor)
	}
	intervals, err := classifier.AnalyzeIntervals(bound.Classifier)
	if err != nil {
		intervals = nil // not a threshold classifier; sample analysis still applies
	}
	rows, err := plan.Stack.Read(plan.DB, plan.Form)
	if err != nil {
		return intervals, nil, err
	}
	sample, err := classifier.AnalyzeSample(bound, rows)
	if err != nil {
		return intervals, nil, err
	}
	return intervals, sample, nil
}

// Study returns a previously built study.
func (s *System) Study(name string) (*Study, error) {
	st, ok := s.studies[name]
	if !ok {
		return nil, fmt.Errorf("guava: no study %q", name)
	}
	return st, nil
}

// RunOption adjusts the context a study runs under. Options compose
// left to right.
type RunOption func(context.Context) context.Context

// WithObserver returns a RunOption that installs o on the run's
// context, so the execution emits spans into o.Tracer and metrics into
// o.Metrics. The returned report's Trace field holds the root span, and
// o.Tracer.OnEnd can stream live per-step progress while the study runs.
func WithObserver(o *obs.Observer) RunOption {
	return func(ctx context.Context) context.Context { return obs.WithObserver(ctx, o) }
}

// RunStudy runs a previously built study under a fault-handling policy —
// the production path of a CORI-style warehouse, where any one
// contributor's extract can hang or fail and the study must still deliver
// the surviving contributors. See Study.RunResilient for the policy and
// report semantics. Options (WithObserver) attach observability to the
// run.
func (s *System) RunStudy(ctx context.Context, name string, policy etl.RunPolicy, workers int, opts ...RunOption) (*Rows, *etl.RunReport, error) {
	st, err := s.Study(name)
	if err != nil {
		return nil, nil, err
	}
	for _, opt := range opts {
		ctx = opt(ctx)
	}
	return st.RunResilient(ctx, policy, workers)
}

// StudyNames lists built studies, sorted.
func (s *System) StudyNames() []string {
	out := make([]string, 0, len(s.studies))
	for n := range s.studies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StudiesUsingColumn reports, per prior study, the classifier it used for a
// column — the cross-study inspection MultiClass supports.
func (s *System) StudiesUsingColumn(column string) map[string]map[string]*Classifier {
	out := make(map[string]map[string]*Classifier)
	for name, st := range s.studies {
		m := st.Classifiers(column)
		if len(m) > 0 {
			out[name] = m
		}
	}
	return out
}

// StudyBuilder assembles a study incrementally.
type StudyBuilder struct {
	sys  *System
	name string
	cols []etl.ColumnSpec
	ctbs []*etl.ContributorPlan
	errs []error
}

// DefineStudy starts building a study.
func (s *System) DefineStudy(name string) *StudyBuilder {
	return &StudyBuilder{sys: s, name: name}
}

// Column adds an output column bound to a study-schema attribute domain.
func (b *StudyBuilder) Column(as, attribute, domain string, kind relstore.Kind) *StudyBuilder {
	b.cols = append(b.cols, etl.ColumnSpec{As: as, Attribute: attribute, Domain: domain, Kind: kind})
	return b
}

// ContributorBuilder scopes classifier choices to one contributor.
type ContributorBuilder struct {
	parent *StudyBuilder
	plan   *etl.ContributorPlan
}

// For opens a contributor section; the contributor must be registered.
func (b *StudyBuilder) For(contributor string) *ContributorBuilder {
	c, err := b.sys.Contributor(contributor)
	if err != nil {
		b.errs = append(b.errs, err)
		return &ContributorBuilder{parent: b, plan: &etl.ContributorPlan{Name: contributor}}
	}
	plan := &etl.ContributorPlan{
		Name: c.Name, DB: c.DB, Tree: c.Tree, Stack: c.Stack, Form: c.Info,
		Classifiers: make(map[string]*classifier.Classifier),
	}
	b.ctbs = append(b.ctbs, plan)
	return &ContributorBuilder{parent: b, plan: plan}
}

// Entity sets the contributor's entity classifier from rule text.
func (cb *ContributorBuilder) Entity(name, description, rules string) *ContributorBuilder {
	cl, err := classifier.ParseEntity(name, description, "Procedure", rules)
	if err != nil {
		cb.parent.errs = append(cb.parent.errs, err)
		return cb
	}
	cb.plan.Entity = cl
	return cb
}

// EntityFor sets the entity classifier with an explicit entity name.
func (cb *ContributorBuilder) EntityFor(entity, name, description, rules string) *ContributorBuilder {
	cl, err := classifier.ParseEntity(name, description, entity, rules)
	if err != nil {
		cb.parent.errs = append(cb.parent.errs, err)
		return cb
	}
	cb.plan.Entity = cl
	return cb
}

// Classify sets the domain classifier filling one output column.
func (cb *ContributorBuilder) Classify(column, name, description string, target Target, rules string) *ContributorBuilder {
	cl, err := classifier.Parse(name, description, target, rules)
	if err != nil {
		cb.parent.errs = append(cb.parent.errs, err)
		return cb
	}
	if cb.plan.Classifiers == nil {
		cb.plan.Classifiers = make(map[string]*classifier.Classifier)
	}
	cb.plan.Classifiers[column] = cl
	return cb
}

// Reuse fills a column with an existing classifier object — the MultiClass
// reuse path across studies.
func (cb *ContributorBuilder) Reuse(column string, cl *Classifier) *ContributorBuilder {
	if cb.plan.Classifiers == nil {
		cb.plan.Classifiers = make(map[string]*classifier.Classifier)
	}
	cb.plan.Classifiers[column] = cl
	return cb
}

// Condition sets the contributor's WHERE-like filter.
func (cb *ContributorBuilder) Condition(expr string) *ContributorBuilder {
	cb.plan.Condition = expr
	return cb
}

// Clean adds a data-cleaning classifier (rules of the form
// "DISCARD <- guard"); matching records are dropped before classification —
// the Section 6 extension.
func (cb *ContributorBuilder) Clean(name, description, rules string) *ContributorBuilder {
	cl, err := classifier.ParseCleaner(name, description, rules)
	if err != nil {
		cb.parent.errs = append(cb.parent.errs, err)
		return cb
	}
	cb.plan.Cleaners = append(cb.plan.Cleaners, cl)
	return cb
}

// Done closes the contributor section.
func (cb *ContributorBuilder) Done() *StudyBuilder { return cb.parent }

// Build compiles the study and registers it with the system.
func (b *StudyBuilder) Build() (*Study, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if _, dup := b.sys.studies[b.name]; dup {
		return nil, fmt.Errorf("guava: study %q already exists", b.name)
	}
	spec := &etl.StudySpec{
		Name:         b.name,
		Columns:      b.cols,
		Contributors: b.ctbs,
		Log:          &provenance.Log{},
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		return nil, err
	}
	st := &Study{Name: b.name, Log: spec.Log, spec: spec, compiled: compiled}
	b.sys.studies[b.name] = st
	return st, nil
}

// BuildVetted compiles the study like Build, but first runs the static
// vetter and refuses registration when it finds error-severity diagnostics.
// The report is returned either way (nil only when assembly itself failed),
// so callers can surface warnings from a study that still built.
func (b *StudyBuilder) BuildVetted() (*Study, *vet.Report, error) {
	if len(b.errs) > 0 {
		return nil, nil, b.errs[0]
	}
	spec := &etl.StudySpec{
		Name:         b.name,
		Columns:      b.cols,
		Contributors: b.ctbs,
		Log:          &provenance.Log{},
	}
	rep := vet.Study(spec, nil, nil)
	if rep.HasErrors() {
		return nil, rep, fmt.Errorf("guava: study %q failed vetting with %d error(s)", b.name, rep.Count(vet.SevError))
	}
	st, err := b.Build()
	if err != nil {
		return nil, rep, err
	}
	return st, rep, nil
}
