package etl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"guava/internal/obs"
	"guava/internal/relstore"
)

// This file implements row-level quarantine: a dead-letter path for
// individual rows that fail extraction or classification. Without it one
// poison row — a NULL key, a value the classifier CASE cannot derive —
// fails its whole step and, through taint propagation, the contributor's
// entire chain. With a quarantine budget set on the RunPolicy, the bad row
// is diverted into the dead-letter relation with full provenance
// (contributor, step, rule, error, the offending row) and the remaining
// rows flow on; when the budget is exceeded the step degrades back to
// failure so systemic corruption is never silently swallowed.

// ErrQuarantineBudget is returned (wrapped) by a step when it quarantines
// more rows than RunPolicy.MaxQuarantinedRows allows.
var ErrQuarantineBudget = errors.New("etl: quarantine budget exceeded")

// QuarantineEntry is one dead-lettered row with its provenance.
type QuarantineEntry struct {
	// Workflow is the run the row was quarantined in.
	Workflow string
	// Step is the workflow step that rejected the row.
	Step string
	// Contributor is parsed from the step ID's "<stage>/<contributor>"
	// convention used by compiled studies; empty when the ID has no stage
	// prefix.
	Contributor string
	// Rule names the evaluation that failed: "extract", "where",
	// "derive", "require <col>", or — for source-side misses — the
	// source rule id (e.g. "NoteReport/HISTORY/SmokeStatus").
	Rule string
	// Err is the row-level error message.
	Err string
	// RowKey is the display form of the row's key value, when known.
	RowKey string
	// RowData renders the full offending row as "col=value, …"; empty for
	// source-side misses where no row was reconstructed.
	RowData string
	// SourceKind classifies the provenance locator: "db-row" for rows
	// diverted from relational evaluation, "report-span" for free-text
	// extraction misses. omitempty keeps pre-provenance checkpoint
	// fixtures byte-stable.
	SourceKind string `json:",omitempty"`
	// Locator pins the diverted input inside its source — "db.table" for
	// relational rows, "report <id> bytes <a>-<b>" for text spans — so
	// text-span and DB-row provenance render uniformly.
	Locator string `json:",omitempty"`
}

// quarantineSchema is the dead-letter relation's schema.
var quarantineSchema = relstore.MustSchema(
	relstore.Column{Name: "Workflow", Type: relstore.KindString, NotNull: true},
	relstore.Column{Name: "Step", Type: relstore.KindString, NotNull: true},
	relstore.Column{Name: "Contributor", Type: relstore.KindString},
	relstore.Column{Name: "Rule", Type: relstore.KindString},
	relstore.Column{Name: "Error", Type: relstore.KindString, NotNull: true},
	relstore.Column{Name: "RowKey", Type: relstore.KindString},
	relstore.Column{Name: "RowData", Type: relstore.KindString},
	relstore.Column{Name: "SourceKind", Type: relstore.KindString},
	relstore.Column{Name: "Locator", Type: relstore.KindString},
)

// QuarantineSchema returns the schema of the dead-letter relation produced
// by RunReport.Quarantine.
func QuarantineSchema() *relstore.Schema { return quarantineSchema }

// quarantine collects dead-lettered rows for one execution, enforcing the
// policy budget. Safe for concurrent use: parallel steps quarantine
// independently.
type quarantine struct {
	workflow string
	budget   int

	mu      sync.Mutex
	entries []QuarantineEntry
	perStep map[string]int
}

func newQuarantine(workflow string, budget int) *quarantine {
	return &quarantine{workflow: workflow, budget: budget, perStep: make(map[string]int)}
}

// sourceRef is the structured source locator a quarantined row carries:
// what kind of source the input came from and where inside it.
type sourceRef struct {
	kind    string // "db-row" or "report-span"
	locator string // "db.table" or "report <id> bytes <a>-<b>"
}

// dbRowRef locates a relational source row.
func dbRowRef(db, table string) sourceRef {
	return sourceRef{kind: "db-row", locator: db + "." + table}
}

// add dead-letters one row. It returns a budget error — which the caller
// must propagate as the step's failure — once the run-wide budget is spent;
// the entry that overflowed is not recorded. A nil quarantine (the run has
// no budget) returns the row's own error, failing the step on it.
func (q *quarantine) add(ctx context.Context, rule string, cause error, rowKey, rowData string, src sourceRef) error {
	if q == nil {
		return fmt.Errorf("%s %s: %w", rule, src.locator, cause)
	}
	step := stepIDFrom(ctx)
	contributor := ""
	if _, name, ok := strings.Cut(step, "/"); ok {
		contributor = name
	}
	ent := QuarantineEntry{
		Workflow:    q.workflow,
		Step:        step,
		Contributor: contributor,
		Rule:        rule,
		Err:         cause.Error(),
		RowKey:      rowKey,
		RowData:     rowData,
		SourceKind:  src.kind,
		Locator:     src.locator,
	}
	q.mu.Lock()
	if len(q.entries) >= q.budget {
		q.mu.Unlock()
		obs.MetricsFrom(ctx).Counter("quarantine.budget_exceeded").Inc()
		return fmt.Errorf("%w (budget %d, step %s: %v)", ErrQuarantineBudget, q.budget, step, cause)
	}
	q.entries = append(q.entries, ent)
	q.perStep[step]++
	q.mu.Unlock()
	obs.MetricsFrom(ctx).Counter("quarantine.rows").Inc()
	return nil
}

// restore re-admits entries captured in a checkpoint snapshot, so a resumed
// run's dead-letter relation equals an uninterrupted run's. Restored rows
// count against the budget like fresh ones.
func (q *quarantine) restore(ents []QuarantineEntry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range ents {
		q.entries = append(q.entries, e)
		q.perStep[e.Step]++
	}
}

// resetStep discards a step's entries. runStep calls it before every
// attempt so a retried step does not dead-letter the same rows twice.
func (q *quarantine) resetStep(step string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.perStep[step] == 0 {
		return
	}
	kept := q.entries[:0]
	for _, e := range q.entries {
		if e.Step != step {
			kept = append(kept, e)
		}
	}
	q.entries = kept
	delete(q.perStep, step)
}

// len reports the number of quarantined rows.
func (q *quarantine) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// stepCount reports how many rows one step quarantined.
func (q *quarantine) stepCount(step string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.perStep[step]
}

// forStep returns the entries one step quarantined, in insertion order.
func (q *quarantine) forStep(step string) []QuarantineEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []QuarantineEntry
	for _, e := range q.entries {
		if e.Step == step {
			out = append(out, e)
		}
	}
	return out
}

// snapshot returns all entries sorted deterministically (by step, key,
// data, rule), independent of scheduling order.
func (q *quarantine) snapshot() []QuarantineEntry {
	q.mu.Lock()
	out := make([]QuarantineEntry, len(q.entries))
	copy(out, q.entries)
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		if a.RowKey != b.RowKey {
			return a.RowKey < b.RowKey
		}
		if a.RowData != b.RowData {
			return a.RowData < b.RowData
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Locator < b.Locator
	})
	return out
}

// rows renders the entries as the dead-letter relation.
func (q *quarantine) rows() *relstore.Rows {
	ents := q.snapshot()
	out := &relstore.Rows{Schema: quarantineSchema, Data: make([]relstore.Row, len(ents))}
	for i, e := range ents {
		out.Data[i] = relstore.Row{
			relstore.Str(e.Workflow), relstore.Str(e.Step), relstore.Str(e.Contributor),
			relstore.Str(e.Rule), relstore.Str(e.Err), relstore.Str(e.RowKey), relstore.Str(e.RowData),
			relstore.Str(e.SourceKind), relstore.Str(e.Locator),
		}
	}
	return out
}

// renderRow formats a row as "col=value, …" for the dead-letter relation.
func renderRow(row relstore.Row, schema *relstore.Schema) string {
	parts := make([]string, 0, len(row))
	for i, v := range row {
		name := fmt.Sprintf("c%d", i)
		if i < len(schema.Columns) {
			name = schema.Columns[i].Name
		}
		parts = append(parts, name+"="+v.String())
	}
	return strings.Join(parts, ", ")
}

// quarantineKey/stepKey thread the active quarantine and the current step ID
// through the context, so components reach the dead-letter path without any
// signature change.
type quarantineKey struct{}
type stepKey struct{}

func withQuarantine(ctx context.Context, q *quarantine) context.Context {
	return context.WithValue(ctx, quarantineKey{}, q)
}

func quarantineFrom(ctx context.Context) *quarantine {
	q, _ := ctx.Value(quarantineKey{}).(*quarantine)
	return q
}

func withStepID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, stepKey{}, id)
}

func stepIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(stepKey{}).(string)
	return id
}
