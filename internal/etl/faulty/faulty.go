// Package faulty provides deterministic fault injection for ETL workflows:
// a Chaos component wraps any real component and misbehaves on a fixed
// schedule — failing the first N attempts, failing forever, sleeping past
// deadlines, blocking until canceled, panicking on a chosen attempt,
// simulating a process crash before or after the step's work, or poisoning
// rows of the step's output — so every failure path in the scheduler is
// exercised by tests rather than hoped-for. TearFile corrupts files the way
// torn writes and bit rot do, for checkpoint-recovery tests.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"guava/internal/etl"
	"guava/internal/relstore"
)

// ErrInjected is the default error a Chaos failure returns; test assertions
// can errors.Is against it.
var ErrInjected = errors.New("faulty: injected failure")

// ErrCrashed is the error CrashBeforeWork/CrashAfterWork return: the
// process-crash simulation. Run it under a fail-fast policy (the default)
// and Execute aborts exactly as a kill would, leaving completed steps'
// checkpoints durable; "resume" is simply re-executing with the same
// checkpoint store and no crash scheduled.
var ErrCrashed = errors.New("faulty: injected crash")

// Chaos wraps a Component and misbehaves on a deterministic schedule. The
// zero value (no wrapped component, no knobs) runs successfully and does
// nothing. Chaos is safe for concurrent use; its attempt counter is shared
// across goroutines.
type Chaos struct {
	// Wrapped is the real component, run once the schedule allows. nil
	// means the successful attempts are no-ops.
	Wrapped etl.Component

	// FailFirst fails the first N attempts with Err, then lets attempts
	// through — a transient fault that a retry policy recovers from.
	FailFirst int
	// FailForever fails every attempt — a permanently dead source.
	FailForever bool
	// Err overrides the injected error (default ErrInjected).
	Err error
	// Delay blocks for the duration before each attempt does its work,
	// honoring ctx — long enough delays trip step or workflow deadlines.
	Delay time.Duration
	// BlockUntilCancel blocks until ctx is done and returns ctx.Err() —
	// the hung-extract scenario.
	BlockUntilCancel bool
	// PanicOnAttempt panics on the given 1-based attempt (0 = never).
	PanicOnAttempt int
	// CrashBeforeWork returns ErrCrashed before the wrapped component
	// runs — the process died between steps; no partial state exists.
	CrashBeforeWork bool
	// CrashAfterWork runs the wrapped component to completion and then
	// returns ErrCrashed — the process died mid-step, after the step's
	// tables were written but before the engine could record success (or
	// checkpoint it). Recovery must tolerate the leftover tables.
	CrashAfterWork bool
	// PoisonRows, when positive, corrupts the first N rows of the wrapped
	// step's (first) written table after a successful run: PoisonColumn is
	// set to NULL, with the table's schema relaxed so the corruption can
	// physically exist — the upstream-junk scenario row-level quarantine
	// exists for.
	PoisonRows int
	// PoisonColumn names the column PoisonRows nulls out. Empty picks the
	// table's first column.
	PoisonColumn string
	// PoisonKeys, when set, limits PoisonRows to rows whose PoisonColumn
	// holds one of these values, so the same source records are poisoned
	// however much of the relation the step's output holds — a key-scoped
	// run reads only some of it.
	PoisonKeys []relstore.Value

	mu       sync.Mutex
	attempts int
}

// Name implements etl.Component.
func (c *Chaos) Name() string {
	if c.Wrapped != nil {
		return c.Wrapped.Name()
	}
	return "chaos"
}

// Describe implements etl.Component.
func (c *Chaos) Describe() string {
	if c.Wrapped != nil {
		return "chaos(" + c.Wrapped.Describe() + ")"
	}
	return "chaos(no-op)"
}

// Attempts returns how many times Run has been called.
func (c *Chaos) Attempts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// Reset zeroes the attempt counter so one Chaos value can serve several
// executions with a fresh schedule each time.
func (c *Chaos) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts = 0
}

// Run implements etl.Component.
func (c *Chaos) Run(ctx context.Context, env *etl.Context) error {
	c.mu.Lock()
	c.attempts++
	n := c.attempts
	c.mu.Unlock()
	if c.PanicOnAttempt > 0 && n == c.PanicOnAttempt {
		panic(fmt.Sprintf("faulty: scheduled panic on attempt %d", n))
	}
	if c.BlockUntilCancel {
		<-ctx.Done()
		return ctx.Err()
	}
	if c.Delay > 0 {
		t := time.NewTimer(c.Delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if c.FailForever || n <= c.FailFirst {
		if c.Err != nil {
			return c.Err
		}
		return fmt.Errorf("%w (attempt %d)", ErrInjected, n)
	}
	if c.CrashBeforeWork {
		return fmt.Errorf("%w (before %s)", ErrCrashed, c.Name())
	}
	if c.Wrapped != nil {
		if err := c.Wrapped.Run(ctx, env); err != nil {
			return err
		}
	}
	if c.PoisonRows > 0 {
		if err := c.poisonOutput(env); err != nil {
			return err
		}
	}
	if c.CrashAfterWork {
		return fmt.Errorf("%w (after %s)", ErrCrashed, c.Name())
	}
	return nil
}

// poisonOutput nulls PoisonColumn in the first PoisonRows rows of the
// wrapped step's first written table. The table is rebuilt under a relaxed
// schema (NOT NULL lifted from the poisoned column) because the store's
// insert-time validation would otherwise make the corruption impossible to
// plant — which is exactly what real upstream systems fail to guarantee.
func (c *Chaos) poisonOutput(env *etl.Context) error {
	writes := c.Writes()
	if len(writes) == 0 {
		return fmt.Errorf("faulty: PoisonRows set but %s declares no writes", c.Name())
	}
	ref := writes[0]
	db := env.DB(ref.DB)
	t, err := db.Table(ref.Table)
	if err != nil {
		return fmt.Errorf("faulty: poison %s: %w", ref, err)
	}
	rows := t.Rows()
	col := c.PoisonColumn
	if col == "" && len(rows.Schema.Columns) > 0 {
		col = rows.Schema.Columns[0].Name
	}
	idx := rows.Schema.Index(col)
	if idx < 0 {
		return fmt.Errorf("faulty: poison %s: no column %q", ref, col)
	}
	relaxed := make([]relstore.Column, len(rows.Schema.Columns))
	copy(relaxed, rows.Schema.Columns)
	relaxed[idx].NotNull = false
	schema, err := relstore.NewSchema(relaxed...)
	if err != nil {
		return fmt.Errorf("faulty: poison %s: %w", ref, err)
	}
	poisoned := 0
	for i, row := range rows.Data {
		if poisoned == c.PoisonRows {
			break
		}
		if c.PoisonKeys == nil || slices.ContainsFunc(c.PoisonKeys, row[idx].Equal) {
			// Stored rows are shared and immutable: poison a copy.
			rows.Data[i] = row.Clone()
			rows.Data[i][idx] = relstore.Null()
			poisoned++
		}
	}
	if err := db.Drop(ref.Table); err != nil {
		return fmt.Errorf("faulty: poison %s: %w", ref, err)
	}
	nt, err := db.CreateTable(ref.Table, schema)
	if err != nil {
		return fmt.Errorf("faulty: poison %s: %w", ref, err)
	}
	return nt.InsertAll(rows.Data)
}

// TearTruncate and TearFlip are TearFile's corruption modes.
const (
	// TearTruncate cuts the file mid-byte-stream — a torn write.
	TearTruncate = "truncate"
	// TearFlip flips one bit in the last quarter of the file — bit rot a
	// checksum must catch.
	TearFlip = "flip"
)

// TearFile corrupts a file in place the way crashes and bad disks do. Tests
// point it at a checkpoint file and assert the engine detects the damage,
// warns, and re-runs the step instead of loading garbage.
func TearFile(path, mode string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch mode {
	case TearTruncate:
		if len(b) < 2 {
			return fmt.Errorf("faulty: %s too short to truncate", path)
		}
		b = b[:len(b)/2]
	case TearFlip:
		if len(b) == 0 {
			return fmt.Errorf("faulty: %s is empty", path)
		}
		b[len(b)-len(b)/4-1] ^= 0x40
	default:
		return fmt.Errorf("faulty: unknown tear mode %q", mode)
	}
	return os.WriteFile(path, b, 0o644)
}

// Reads forwards the wrapped component's declared reads so workflow linting
// and degradation still see the true dataflow through the chaos wrapper.
func (c *Chaos) Reads() []etl.TableRef {
	if r, ok := c.Wrapped.(interface{ Reads() []etl.TableRef }); ok {
		return r.Reads()
	}
	return nil
}

// Writes forwards the wrapped component's declared writes; the scheduler
// uses them to decide which tables a failed chaos step starved its
// dependents of.
func (c *Chaos) Writes() []etl.TableRef {
	if w, ok := c.Wrapped.(interface{ Writes() []etl.TableRef }); ok {
		return w.Writes()
	}
	return nil
}

// Wrap replaces the component of the workflow step with the given ID with a
// Chaos wrapper built by mk, returning the wrapper (nil if no step matched).
// It is the standard way to inject a fault into a compiled study.
func Wrap(w *etl.Workflow, stepID string, mk func(wrapped etl.Component) *Chaos) *Chaos {
	for i := range w.Steps {
		if w.Steps[i].ID == stepID {
			ch := mk(w.Steps[i].Component)
			w.Steps[i].Component = ch
			return ch
		}
	}
	return nil
}
