package etl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"guava/internal/obs"
)

// Execute runs the workflow under a RunPolicy and returns a RunReport
// describing every step's fate. It is the one workflow engine: a
// dependency-counting scheduler with per-step retry,
// per-step and per-workflow deadlines, and — with policy.ContinueOnError —
// graceful pruning of a failed step's transitive dependents while every
// independent step still runs.
//
// workers bounds concurrency (<= 0 means one goroutine per ready step).
//
// The returned error is non-nil when the workflow is structurally invalid,
// when ctx is canceled or a deadline expires, or — without ContinueOnError —
// on the first step failure. With ContinueOnError, step failures are
// recorded in the report (report.Err holds the first one) and the call
// itself returns nil so the caller can salvage partial results.
func (w *Workflow) Execute(ctx context.Context, env *Context, policy RunPolicy, workers int) (*RunReport, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	steps, err := w.order() // validates IDs, deps, acyclicity
	if err != nil {
		return nil, err
	}
	// The workflow span opens before the timeout wrap and before execCtx
	// derives, so every step, attempt, and component span nests under it
	// and deadline overruns show up inside its duration.
	metrics := obs.MetricsFrom(ctx)
	ctx, wfSpan := obs.StartSpan(ctx, "workflow "+w.Name,
		obs.String("workflow", w.Name), obs.Int("steps", int64(len(steps))))
	metrics.Gauge("etl.workflow.active").Add(1)
	defer metrics.Gauge("etl.workflow.active").Add(-1)
	if policy.WorkflowTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, policy.WorkflowTimeout)
		defer cancel()
	}
	// Own cancel scope: aborting the run tells in-flight components to
	// stop, so the scheduler never waits on work it no longer needs.
	execCtx, cancelExec := context.WithCancel(ctx)
	defer cancelExec()

	report := &RunReport{Workflow: w.Name, Trace: wfSpan, byID: make(map[string]*StepResult, len(steps))}
	var quar *quarantine
	if policy.MaxQuarantinedRows > 0 {
		quar = newQuarantine(w.Name, policy.MaxQuarantinedRows)
		execCtx = withQuarantine(execCtx, quar)
		report.q = quar
	}
	ckpt := policy.Checkpoint
	fingerprint := policy.CheckpointKey
	if ckpt != nil && fingerprint == "" {
		fingerprint = w.Fingerprint()
	}
	for _, s := range steps {
		res := &StepResult{ID: s.ID, Status: StepSkipped}
		report.Steps = append(report.Steps, res)
		report.byID[s.ID] = res
	}

	indegree := make(map[string]int, len(steps))
	children := make(map[string][]*Step, len(steps))
	byID := make(map[string]*Step, len(steps))
	for _, s := range steps {
		byID[s.ID] = s
		indegree[s.ID] = len(s.DependsOn)
		for _, d := range s.DependsOn {
			children[d] = append(children[d], s)
		}
	}

	if workers <= 0 {
		workers = len(steps)
	}
	wfSpan.SetAttr(obs.Int("workers", int64(workers)))
	type item struct {
		step     *Step
		comp     Component
		enqueued time.Time // when the step became ready, for queue-wait
	}
	work := make(chan item, len(steps))
	done := make(chan *Step, len(steps))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case it, ok := <-work:
					if !ok {
						return
					}
					res := report.byID[it.step.ID]
					res.QueueWait = time.Since(it.enqueued)
					metrics.Histogram("etl.step.queue_wait_ms").Observe(float64(res.QueueWait) / float64(time.Millisecond))
					w.runStep(execCtx, env, it.step, it.comp, policy, res)
					// Only fully-successful steps checkpoint: a degraded
					// step's output reflects a pruned plan, and restoring it
					// into a healthy later run would silently drop
					// contributors.
					if ckpt != nil && res.Status == StepOK && res.Err == nil {
						saveCheckpoint(execCtx, env, ckpt, fingerprint, it.step, quar)
					}
					done <- it.step
				}
			}
		}()
	}

	// taint[id] = the failed or skipped transitive ancestors of a step,
	// known once all its dependencies completed. Only the scheduler
	// goroutine touches it.
	taint := make(map[string]map[string]bool, len(steps))

	// dispatch hands a ready step to a worker, or resolves it inline as
	// skipped when failed ancestors starve it of inputs and it cannot
	// degrade. Returns true when resolved inline.
	dispatch := func(s *Step) bool {
		res := report.byID[s.ID]
		t := map[string]bool{}
		for _, d := range s.DependsOn {
			for id := range taint[d] {
				t[id] = true
			}
			switch report.byID[d].Status {
			case StepFailed, StepSkipped:
				t[d] = true
			}
		}
		taint[s.ID] = t
		if len(t) == 0 {
			// A step already checkpointed under this plan's fingerprint is
			// restored inline — its outputs materialize without a worker,
			// an attempt, or a re-execution. Corrupt or unreadable
			// snapshots demote to a miss and the step runs normally.
			if ckpt != nil && tryRestore(execCtx, env, ckpt, fingerprint, s, res, quar) {
				return true
			}
			res.Status = StepOK // provisional; runStep records failures
			work <- item{step: s, comp: s.Component, enqueued: time.Now()}
			return false
		}
		cause := make([]string, 0, len(t))
		for id := range t {
			cause = append(cause, id)
		}
		sort.Strings(cause)
		res.SkippedBecause = cause
		// Tables the failed/skipped ancestors would have written never
		// materialized; a degradable component may run without them.
		unavailable := map[string]bool{}
		for id := range t {
			if wr, ok := byID[id].Component.(writer); ok {
				for _, ref := range wr.Writes() {
					unavailable[ref.String()] = true
				}
			}
		}
		if dg, ok := s.Component.(degradable); ok {
			if reduced, ok2 := dg.WithoutInputs(unavailable); ok2 {
				res.Status = StepDegraded // provisional
				if rd, ok3 := s.Component.(reader); ok3 {
					for _, ref := range rd.Reads() {
						if unavailable[ref.String()] {
							res.DroppedInputs = append(res.DroppedInputs, ref)
						}
					}
				}
				work <- item{step: s, comp: reduced, enqueued: time.Now()}
				return false
			}
		}
		res.Status = StepSkipped
		// Skipped steps never reach a worker, so give them an instant span
		// here — the trace still names every step and why it was pruned.
		_, skipSpan := obs.StartSpan(execCtx, "step "+s.ID,
			obs.String("step", s.ID), obs.String("status", "skipped"),
			obs.String("because", strings.Join(cause, ",")))
		skipSpan.End()
		res.Span = skipSpan
		metrics.Counter("etl.steps.skipped").Inc()
		return true
	}

	completed := 0
	// cascade dispatches each ready step; steps resolved inline — skipped
	// for taint, or restored from a checkpoint — complete immediately and
	// unlock their own children in turn without a worker round-trip.
	cascade := func(ready []*Step) {
		queue := append([]*Step(nil), ready...)
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if !dispatch(c) {
				continue
			}
			completed++
			for _, cc := range children[c.ID] {
				indegree[cc.ID]--
				if indegree[cc.ID] == 0 {
					queue = append(queue, cc)
				}
			}
		}
	}
	roots := make([]*Step, 0, len(steps))
	for _, s := range steps {
		if indegree[s.ID] == 0 {
			roots = append(roots, s)
		}
	}
	cascade(roots)

	var firstErr error
loop:
	for completed < len(steps) {
		select {
		case <-ctx.Done():
			firstErr = fmt.Errorf("etl: workflow %q: %w", w.Name, ctx.Err())
			break loop
		case s := <-done:
			completed++
			res := report.byID[s.ID]
			if res.Status == StepFailed {
				if report.Err == nil {
					report.Err = res.Err
				}
				if !policy.ContinueOnError {
					firstErr = res.Err
					break loop
				}
			}
			ready := make([]*Step, 0, len(children[s.ID]))
			for _, c := range children[s.ID] {
				indegree[c.ID]--
				if indegree[c.ID] == 0 {
					ready = append(ready, c)
				}
			}
			cascade(ready)
		}
	}
	cancelExec()
	close(stop)
	// work and done are buffered to len(steps); in-flight workers finish
	// without blocking. Components that honor ctx return promptly.
	wg.Wait()

	if firstErr != nil {
		// Aborted: steps that were queued or pending but never ran count
		// as skipped, not ok/degraded — but checkpoint-restored steps did
		// complete and keep their status. Their Duration stays zero —
		// absent, not measured.
		for _, res := range report.Steps {
			if res.Attempts == 0 && res.Status != StepFailed && res.Status != StepRestored {
				res.Status = StepSkipped
				if res.Span == nil {
					_, sp := obs.StartSpan(execCtx, "step "+res.ID,
						obs.String("step", res.ID), obs.String("status", "skipped"),
						obs.String("because", "workflow aborted"))
					sp.End()
					res.Span = sp
					metrics.Counter("etl.steps.skipped").Inc()
				}
			}
		}
		if report.Err == nil {
			report.Err = firstErr
		}
	}
	if quar != nil {
		for _, res := range report.Steps {
			res.Quarantined = quar.stepCount(res.ID)
		}
		report.Quarantined = quar.len()
		wfSpan.SetAttr(obs.Int("rows.quarantined", int64(report.Quarantined)))
	}
	wfSpan.SetAttr(
		obs.Int("steps.failed", int64(len(report.Failed()))),
		obs.Int("steps.skipped", int64(len(report.Skipped()))),
		obs.Int("steps.degraded", int64(len(report.Degraded()))),
		obs.Int("steps.restored", int64(len(report.Restored()))),
	)
	wfSpan.EndErr(report.Err)
	return report, firstErr
}

// tryRestore resolves a step from its checkpoint: the snapshot's tables
// materialize into env and its quarantined rows re-enter the run's
// dead-letter relation. Any problem — a corrupt snapshot, a clean miss, a
// write failure — returns false and the step runs normally; checkpointing
// never makes a run worse than not having checkpoints at all.
func tryRestore(ctx context.Context, env *Context, ckpt Checkpointer, fp string, s *Step, res *StepResult, quar *quarantine) bool {
	metrics := obs.MetricsFrom(ctx)
	snap, err := ckpt.Load(fp, s.ID)
	if err != nil {
		metrics.Counter("ckpt.corrupt").Inc()
		obs.Event(ctx, "checkpoint corrupt",
			obs.String("step", s.ID), obs.String("error", err.Error()))
		return false
	}
	if snap == nil {
		metrics.Counter("ckpt.miss").Inc()
		return false
	}
	if err := restoreSnapshot(env, snap); err != nil {
		metrics.Counter("ckpt.restore_err").Inc()
		obs.Event(ctx, "checkpoint restore failed",
			obs.String("step", s.ID), obs.String("error", err.Error()))
		return false
	}
	if quar != nil && len(snap.Quarantined) > 0 {
		quar.restore(snap.Quarantined)
	}
	res.Status = StepRestored
	_, sp := obs.StartSpan(ctx, "step "+s.ID,
		obs.String("step", s.ID), obs.String("status", "restored"),
		obs.Int("tables", int64(len(snap.Tables))))
	sp.End()
	res.Span = sp
	metrics.Counter("ckpt.restored").Inc()
	return true
}

// saveCheckpoint snapshots a completed step's written tables (and the rows
// it quarantined) into the store. Save failures are observability warnings,
// not run failures: a full checkpoint disk must not fail an otherwise
// healthy study run.
func saveCheckpoint(ctx context.Context, env *Context, ckpt Checkpointer, fp string, s *Step, quar *quarantine) {
	metrics := obs.MetricsFrom(ctx)
	start := time.Now()
	snap := &Snapshot{Step: s.ID}
	if wr, ok := s.Component.(writer); ok {
		for _, ref := range wr.Writes() {
			rows, err := ref.read(env)
			if err != nil {
				metrics.Counter("ckpt.save_err").Inc()
				obs.Event(ctx, "checkpoint save failed",
					obs.String("step", s.ID), obs.String("error", err.Error()))
				return
			}
			snap.Tables = append(snap.Tables, TableSnapshot{Ref: ref, Rows: rows})
		}
	}
	if quar != nil {
		snap.Quarantined = quar.forStep(s.ID)
	}
	if err := ckpt.Save(fp, s.ID, snap); err != nil {
		metrics.Counter("ckpt.save_err").Inc()
		obs.Event(ctx, "checkpoint save failed",
			obs.String("step", s.ID), obs.String("error", err.Error()))
		return
	}
	metrics.Counter("ckpt.saved").Inc()
	metrics.Histogram("ckpt.save_ms").Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// runStep executes one step with retry under the policy, recording the
// outcome into res.
func (w *Workflow) runStep(ctx context.Context, env *Context, s *Step, comp Component, policy RunPolicy, res *StepResult) {
	metrics := obs.MetricsFrom(ctx)
	sctx, span := obs.StartSpan(ctx, "step "+s.ID, obs.String("step", s.ID))
	sctx = withStepID(sctx, s.ID) // provenance for quarantined rows
	res.Span = span
	if res.Status == StepDegraded {
		span.SetAttr(obs.Bool("degraded", true))
		if len(res.DroppedInputs) > 0 {
			parts := make([]string, len(res.DroppedInputs))
			for i, ref := range res.DroppedInputs {
				parts[i] = ref.String()
			}
			span.SetAttr(obs.String("dropped_inputs", strings.Join(parts, ",")))
		}
	}
	// start carries a monotonic clock reading, so res.Duration is immune
	// to wall-clock adjustments mid-run.
	start := time.Now()
	max := policy.attempts()
	for attempt := 1; attempt <= max; attempt++ {
		res.Attempts = attempt
		metrics.Counter("etl.attempts").Inc()
		if attempt > 1 {
			metrics.Counter("etl.retries").Inc()
		}
		if quar := quarantineFrom(ctx); quar != nil {
			quar.resetStep(s.ID)
		}
		actx, aspan := obs.StartSpan(sctx, fmt.Sprintf("attempt %d", attempt))
		err := runAttempt(actx, env, comp, policy.StepTimeout)
		aspan.EndErr(err)
		if err == nil {
			res.Err = nil
			break
		}
		if errors.Is(err, context.DeadlineExceeded) {
			metrics.Counter("etl.timeouts").Inc()
		}
		res.Err = fmt.Errorf("etl: workflow %q step %q: %w", w.Name, s.ID, err)
		if attempt == max || ctx.Err() != nil || !policy.retryable(err) {
			break
		}
		if err := policy.sleep(ctx, policy.delay(attempt)); err != nil {
			break
		}
	}
	res.Duration = time.Since(start)
	if res.Err != nil {
		res.Status = StepFailed
		metrics.Counter("etl.steps.failed").Inc()
	} else if res.Status == StepDegraded {
		metrics.Counter("etl.steps.degraded").Inc()
	} else {
		metrics.Counter("etl.steps.ok").Inc()
	}
	metrics.Histogram("etl.step.run_ms").Observe(float64(res.Duration) / float64(time.Millisecond))
	span.SetAttr(obs.String("status", res.Status.String()), obs.Int("attempts", int64(res.Attempts)))
	span.EndErr(res.Err)
}

// runAttempt runs one attempt with an optional per-attempt deadline,
// converting panics into errors so a misbehaving component cannot take the
// scheduler down with it.
func runAttempt(ctx context.Context, env *Context, comp Component, timeout time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step panicked: %v", r)
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return comp.Run(ctx, env)
}
