package etl_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"guava/internal/etl"
	"guava/internal/etl/faulty"
)

// TestCancelUnblocksParallel: a workflow whose mid-step blocks until
// canceled must return context.Canceled promptly once the caller cancels.
func TestCancelUnblocksParallel(t *testing.T) {
	w := &etl.Workflow{Name: "blocky"}
	first := w.Add("first", &faulty.Chaos{})
	w.Add("hang", &faulty.Chaos{BlockUntilCancel: true}, first)
	w.Add("after", &faulty.Chaos{}, "hang")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { _, err := w.Execute(ctx, etl.NewContext(nil), etl.RunPolicy{}, 2); errc <- err }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("workflow did not return after cancel")
	}
}

// TestCancelUnblocksSerial: a one-worker execution also propagates ctx into
// the running component and unblocks.
func TestCancelUnblocksSerial(t *testing.T) {
	w := &etl.Workflow{Name: "blocky-serial"}
	w.Add("hang", &faulty.Chaos{BlockUntilCancel: true})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { _, err := w.Execute(ctx, etl.NewContext(nil), etl.RunPolicy{}, 1); errc <- err }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serial run did not return after cancel")
	}
}

// TestStepTimeoutBeforeWorkflowTimeout: with a short per-step and a long
// per-workflow deadline, the step deadline fires — the run fails on the
// step's DeadlineExceeded long before the workflow deadline.
func TestStepTimeoutBeforeWorkflowTimeout(t *testing.T) {
	w := &etl.Workflow{Name: "slow"}
	w.Add("slow", &faulty.Chaos{Delay: time.Hour})
	policy := etl.RunPolicy{StepTimeout: 30 * time.Millisecond, WorkflowTimeout: time.Hour}
	start := time.Now()
	rep, err := w.Execute(context.Background(), etl.NewContext(nil), policy, 1)
	elapsed := time.Since(start)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("took %v; the step deadline should fire in milliseconds", elapsed)
	}
	res := rep.Step("slow")
	if res.Status != etl.StepFailed || res.Attempts != 1 {
		t.Fatalf("step = %v attempts=%d", res.Status, res.Attempts)
	}
}

// TestWorkflowTimeout: the whole-run deadline cancels a workflow with no
// per-step deadline.
func TestWorkflowTimeout(t *testing.T) {
	w := &etl.Workflow{Name: "slow-wf"}
	w.Add("slow", &faulty.Chaos{Delay: time.Hour})
	policy := etl.RunPolicy{WorkflowTimeout: 30 * time.Millisecond}
	start := time.Now()
	_, err := w.Execute(context.Background(), etl.NewContext(nil), policy, 1)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v; the workflow deadline should fire in milliseconds", elapsed)
	}
}

// TestStepTimeoutRecoversOnRetry: an attempt that trips the per-step
// deadline is retried with a fresh deadline and can succeed.
func TestStepTimeoutRecoversOnRetry(t *testing.T) {
	w := &etl.Workflow{Name: "flaky-slow"}
	// First attempt blocks (trips the 30ms step deadline); attempt 2 is
	// instant because FailFirst only injects the delay error once.
	ch := &faulty.Chaos{FailFirst: 1, Err: context.DeadlineExceeded}
	w.Add("flaky", ch)
	rep, err := w.Execute(context.Background(), etl.NewContext(nil), etl.RunPolicy{MaxAttempts: 2, StepTimeout: 30 * time.Millisecond}, 1)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res := rep.Step("flaky"); res.Status != etl.StepOK || res.Attempts != 2 {
		t.Fatalf("step = %v attempts=%d, want ok after retry", res.Status, res.Attempts)
	}
}
