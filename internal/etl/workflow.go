package etl

import (
	"fmt"
	"strings"
)

// Step is one named node of a workflow DAG.
type Step struct {
	// ID identifies the step within the workflow.
	ID string
	// Component does the work.
	Component Component
	// DependsOn lists step IDs that must complete first.
	DependsOn []string
}

// Workflow is a DAG of ETL steps. The study compiler emits linear
// three-stage chains per contributor plus a final union (Figure 6), but the
// engine supports arbitrary DAGs.
type Workflow struct {
	Name  string
	Steps []Step
}

// Add appends a step and returns its ID for chaining.
func (w *Workflow) Add(id string, c Component, deps ...string) string {
	w.Steps = append(w.Steps, Step{ID: id, Component: c, DependsOn: deps})
	return id
}

// order topologically sorts the steps, failing on cycles, duplicate IDs, or
// dangling dependencies.
func (w *Workflow) order() ([]*Step, error) {
	byID := make(map[string]*Step, len(w.Steps))
	for i := range w.Steps {
		s := &w.Steps[i]
		if s.ID == "" {
			return nil, fmt.Errorf("etl: workflow %q has a step with empty ID", w.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return nil, fmt.Errorf("etl: workflow %q has duplicate step %q", w.Name, s.ID)
		}
		byID[s.ID] = s
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(byID))
	var out []*Step
	var visit func(id string) error
	visit = func(id string) error {
		s, ok := byID[id]
		if !ok {
			return fmt.Errorf("etl: workflow %q depends on unknown step %q", w.Name, id)
		}
		switch color[id] {
		case gray:
			return fmt.Errorf("etl: workflow %q has a dependency cycle through %q", w.Name, id)
		case black:
			return nil
		}
		color[id] = gray
		for _, d := range s.DependsOn {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[id] = black
		out = append(out, s)
		return nil
	}
	for i := range w.Steps {
		if err := visit(w.Steps[i].ID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reader and writer are implemented by components that declare their table
// dataflow, enabling static workflow linting.
type reader interface{ Reads() []TableRef }
type writer interface{ Writes() []TableRef }

// Reads implements reader.
func (q *Query) Reads() []TableRef { return []TableRef{q.From} }

// Writes implements writer.
func (q *Query) Writes() []TableRef { return []TableRef{q.To} }

// Reads implements reader (Extract reads source databases, not workflow
// tables, so it declares none).
func (e *Extract) Reads() []TableRef { return nil }

// Writes implements writer.
func (e *Extract) Writes() []TableRef { return []TableRef{e.To} }

// Reads implements reader.
func (u *Union) Reads() []TableRef { return u.From }

// Writes implements writer.
func (u *Union) Writes() []TableRef { return []TableRef{u.To} }

// Reads implements reader.
func (j *JoinStep) Reads() []TableRef { return []TableRef{j.Left, j.Right} }

// Writes implements writer.
func (j *JoinStep) Writes() []TableRef { return []TableRef{j.To} }

// Lint statically checks the workflow's dataflow: every table a step reads
// must be written by one of its (transitive) dependencies — otherwise the
// step races against whichever order the scheduler picks, or reads a table
// that never exists. Components that do not declare their dataflow are
// skipped. Lint subsumes the cycle/ID checks of order().
func (w *Workflow) Lint() error {
	steps, err := w.order()
	if err != nil {
		return err
	}
	// Transitive closure of dependencies, computed in topological order.
	deps := make(map[string]map[string]bool, len(steps))
	byID := make(map[string]*Step, len(steps))
	for _, s := range steps {
		byID[s.ID] = s
		all := map[string]bool{}
		for _, d := range s.DependsOn {
			all[d] = true
			for dd := range deps[d] {
				all[dd] = true
			}
		}
		deps[s.ID] = all
	}
	// Who writes each table?
	writers := map[string][]string{}
	for _, s := range steps {
		if wr, ok := s.Component.(writer); ok {
			for _, ref := range wr.Writes() {
				writers[ref.String()] = append(writers[ref.String()], s.ID)
			}
		}
	}
	for _, s := range steps {
		rd, ok := s.Component.(reader)
		if !ok {
			continue
		}
		for _, ref := range rd.Reads() {
			producers := writers[ref.String()]
			if len(producers) == 0 {
				return fmt.Errorf("etl: workflow %q step %q reads %s, which no step produces", w.Name, s.ID, ref)
			}
			covered := false
			for _, p := range producers {
				if deps[s.ID][p] {
					covered = true
					break
				}
			}
			if !covered {
				return fmt.Errorf("etl: workflow %q step %q reads %s but does not depend on its producer(s) %v",
					w.Name, s.ID, ref, producers)
			}
		}
	}
	return nil
}

// Render draws the workflow plan for analysts: the generated ETL is meant to
// be inspectable, not a black box — the motivating failure of classical ETL
// is that "analysts do not completely understand the process by which data
// arrives in the warehouse".
func (w *Workflow) Render() string {
	steps, err := w.order()
	if err != nil {
		return fmt.Sprintf("workflow %s: %v", w.Name, err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "workflow %s (%d steps)\n", w.Name, len(steps))
	for i, s := range steps {
		dep := ""
		if len(s.DependsOn) > 0 {
			dep = " after " + strings.Join(s.DependsOn, ", ")
		}
		fmt.Fprintf(&sb, "%2d. [%s] %s%s\n      %s\n", i+1, s.Component.Name(), s.ID, dep, s.Component.Describe())
	}
	return sb.String()
}
