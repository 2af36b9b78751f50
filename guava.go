// Package guava is a reproduction of "Context-Sensitive Clinical Data
// Integration" (Terwilliger, Delcambre, Logan — EDBT 2006 Workshops): the
// GUAVA (GUI As View Apparatus) and MultiClass components that let domain
// experts — not database programmers — express per-study data extraction,
// integration, and classification over heterogeneous clinical sources, and
// have those specifications compiled into ordinary ETL workflows.
//
// The package is the public facade over the subsystems in internal/:
//
//   - relstore: the relational engine every database in the system runs on
//   - ui: the reporting-tool form model (controls, enablement, defaults)
//   - gtree: g-trees derived automatically from forms (Hypothesis #1)
//   - patterns: the Table 1 database design patterns, as bidirectional
//     stacks between a form's naive schema and its physical layout
//   - gquery: queries against g-trees, rewritten through pattern stacks
//   - classifier: the Figure 5 classifier language (parse, bind, evaluate,
//     and emit as XQuery / Datalog / SQL)
//   - study: study schemas with multi-domain attributes (Figure 4, Table 2)
//   - etl: the ETL component framework and the study → three-stage-workflow
//     compiler of Figure 6 (Hypothesis #3)
//   - materialize: the Section 4.2 materialization strategies (Figure 7)
//   - versioning: classifier propagation across reporting-tool versions
//   - workload: the synthetic CORI-like endoscopy data generator
//   - baseline: hand-written expert ETL and the classical fully-integrated
//     warehouse, for comparison (Hypothesis #2)
//
// A typical session registers contributors (a form + a pattern stack + a
// populated database), defines a study by picking classifiers per
// contributor, and runs it:
//
//	sys := guava.New("CORI outcomes")
//	c, _ := sys.RegisterContributor("CORI", form, stack, db)
//	st, _ := sys.DefineStudy("study2").
//		Column("Smoking_D3", "Smoking", "D3", guava.KindString).
//		For("CORI").
//		Entity("All", "", "Procedure <- Procedure").
//		Classify("Smoking_D3", "Habits (Cancer)", "…", target, rules).
//		Done().
//		Build()
//	rows, _ := st.Run()
package guava

import (
	"guava/internal/classifier"
	"guava/internal/etl"
	"guava/internal/gquery"
	"guava/internal/gtree"
	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/relstore"
	"guava/internal/study"
	"guava/internal/ui"
	"guava/internal/vet"
)

// Re-exported value kinds.
const (
	KindNull   = relstore.KindNull
	KindInt    = relstore.KindInt
	KindFloat  = relstore.KindFloat
	KindString = relstore.KindString
	KindBool   = relstore.KindBool
)

// Aliases exposing the subsystem types a user of the facade composes with.
type (
	// Value is a typed database cell.
	Value = relstore.Value
	// Rows is a materialized relation (query or study result).
	Rows = relstore.Rows
	// DB is one database instance.
	DB = relstore.DB

	// Form is a reporting-tool screen definition.
	Form = ui.Form
	// Control is one element of a form.
	Control = ui.Control
	// Option is a selectable answer of a control.
	Option = ui.Option
	// Entry is one in-progress filling of a form.
	Entry = ui.Entry
	// Enablement guards when a control becomes answerable.
	Enablement = ui.Enablement

	// GTree is a g-tree derived from a form.
	GTree = gtree.Tree
	// GNode is one g-tree node.
	GNode = gtree.Node

	// Stack is a pattern stack (Table 1 compositions).
	Stack = patterns.Stack
	// FormInfo is a form's naive-schema summary.
	FormInfo = patterns.FormInfo

	// Classifier is a MultiClass classifier.
	Classifier = classifier.Classifier
	// Target identifies the study-schema domain a classifier maps into.
	Target = classifier.Target

	// StudySchema is a study schema (has-a entity tree).
	StudySchema = study.Schema
	// Domain is one representation of a study-schema attribute.
	Domain = study.Domain

	// Query is a query against a g-tree.
	Query = gquery.Query
	// AggregateQuery is a grouped-aggregate query against a g-tree.
	AggregateQuery = gquery.AggregateQuery

	// Workflow is an executable ETL workflow.
	Workflow = etl.Workflow
	// RunPolicy configures retry, timeouts, and partial-failure handling
	// for resilient study execution.
	RunPolicy = etl.RunPolicy
	// RunReport is the structured outcome of a resilient execution:
	// per-step attempts, durations, errors, and the degraded contributors.
	RunReport = etl.RunReport
	// StepResult records one workflow step's fate in a RunReport.
	StepResult = etl.StepResult
	// Checkpointer durably stores completed-step snapshots so a crashed
	// study run resumes from the last durable step (set it on
	// RunPolicy.Checkpoint).
	Checkpointer = etl.Checkpointer
	// FSCheckpointer is the filesystem-backed Checkpointer.
	FSCheckpointer = etl.FSCheckpointer
	// MemCheckpointer is the in-memory Checkpointer (tests, single
	// process).
	MemCheckpointer = etl.MemCheckpointer
	// QuarantineEntry is one dead-lettered row with its provenance.
	QuarantineEntry = etl.QuarantineEntry
	// RefreshStats summarizes one warehouse refresh (rows added, updated,
	// unchanged); its Changed method is the cache-invalidation signal.
	RefreshStats = etl.RefreshStats
	// RefreshOptions configures a Study.Refresh: full or delta mode, the
	// run policy, the journal cursors.
	RefreshOptions = etl.RefreshOptions
	// RefreshReport is one refresh's outcome: stats, delta keys, the run.
	RefreshReport = etl.RefreshReport

	// Observer bundles a Tracer and a metrics Registry; attach one to a
	// run with WithObserver to collect spans and metrics.
	Observer = obs.Observer
	// Span is one timed operation in a trace.
	Span = obs.Span
	// Tracer collects the spans of one or more observed runs.
	Tracer = obs.Tracer
	// Registry is a metrics registry (counters, gauges, histograms).
	Registry = obs.Registry

	// VetReport is a static-vetting report (see Study.Vet and VETTING.md).
	VetReport = vet.Report
	// VetDiagnostic is one finding of the static vetter.
	VetDiagnostic = vet.Diagnostic
	// VetSeverity ranks vet findings (info, warning, error).
	VetSeverity = vet.Severity
)

// Vet severities re-exported for filtering reports.
const (
	VetInfo    = vet.SevInfo
	VetWarning = vet.SevWarning
	VetError   = vet.SevError
)

// Checkpoint-store constructors re-exported from etl.
var (
	// NewFSCheckpointer creates a filesystem checkpoint store rooted at a
	// directory (one subdirectory per workflow fingerprint).
	NewFSCheckpointer = etl.NewFSCheckpointer
	// NewMemCheckpointer creates an in-memory checkpoint store.
	NewMemCheckpointer = etl.NewMemCheckpointer
	// QuarantineSchema is the schema of RunReport.Quarantine's dead-letter
	// relation.
	QuarantineSchema = etl.QuarantineSchema
)

// ErrCorruptCheckpoint wraps checkpoint checksum/truncation detections; the
// engine treats them as misses and re-runs the step.
var ErrCorruptCheckpoint = etl.ErrCorruptCheckpoint

// ErrQuarantineBudget is the error a step fails with once the run's
// RunPolicy.MaxQuarantinedRows budget is spent.
var ErrQuarantineBudget = etl.ErrQuarantineBudget

// Observability constructors and exporters re-exported from obs.
var (
	// NewObserver creates an empty observer (fresh tracer + registry).
	NewObserver = obs.NewObserver
	// RenderTrace formats spans as a human-readable flame-style tree.
	RenderTrace = obs.RenderTree
	// WriteSpans writes spans as JSON lines.
	WriteSpans = obs.WriteSpans
	// WriteMetrics writes a registry snapshot as JSON lines.
	WriteMetrics = obs.WriteMetrics
)

// Convenience constructors re-exported from relstore.
var (
	// Null returns the NULL value.
	Null = relstore.Null
	// Int returns an integer value.
	Int = relstore.Int
	// Float returns a floating-point value.
	Float = relstore.Float
	// Str returns a string value.
	Str = relstore.Str
	// Bool returns a boolean value.
	Bool = relstore.Bool
	// NewDB creates an empty database.
	NewDB = relstore.NewDB
)

// Re-exported control kinds for form construction.
const (
	GroupBox  = ui.GroupBox
	TextBox   = ui.TextBox
	CheckBox  = ui.CheckBox
	RadioList = ui.RadioList
	DropDown  = ui.DropDown
)

// Re-exported enablement conditions.
const (
	Always       = ui.Always
	WhenAnswered = ui.WhenAnswered
	WhenEquals   = ui.WhenEquals
)

// NewEntry starts filling a form instance with the given key.
var NewEntry = ui.NewEntry

// DeriveGTree derives a g-tree from a form (Hypothesis #1).
var DeriveGTree = gtree.Derive

// NewStack builds a pattern stack over a layout.
var NewStack = patterns.NewStack

// Layouts and transforms re-exported for stack construction.
type (
	// Naive is the identity layout.
	Naive = patterns.Naive
	// Merge shares one physical table among forms.
	Merge = patterns.Merge
	// Split distributes a form over several tables.
	Split = patterns.Split
	// Generic is the EAV layout.
	Generic = patterns.Generic
	// Partitioned shards a base layout by key.
	Partitioned = patterns.Partitioned
	// Audit adds the never-delete deprecation column.
	Audit = patterns.Audit
	// Rename maps control names to physical column names.
	Rename = patterns.Rename
	// Encode stores booleans as coded strings.
	Encode = patterns.Encode
	// Sentinel stores NULL as out-of-domain sentinel values.
	Sentinel = patterns.Sentinel
	// Lookup stores categorical answers as dimension-table codes.
	Lookup = patterns.Lookup
	// Delimited packs several answers into one delimited column.
	Delimited = patterns.Delimited
)
