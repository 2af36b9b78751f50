package etl_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"guava/internal/etl"
	"guava/internal/etl/faulty"
)

// tracked is a no-op component that records that it ran.
type tracked struct {
	id  string
	mu  *sync.Mutex
	ran map[string]bool
}

func (c tracked) Name() string     { return "nop" }
func (c tracked) Describe() string { return "tracked no-op " + c.id }
func (c tracked) Run(ctx context.Context, env *etl.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.ran[c.id] = true
	c.mu.Unlock()
	return nil
}

// randomDeps draws a random DAG over n steps: deps[i] lists earlier step
// indices step i depends on.
func randomDeps(r *rand.Rand, n int) [][]int {
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		for d := 0; d < i; d++ {
			if r.Float64() < 0.35 {
				deps[i] = append(deps[i], d)
			}
		}
	}
	return deps
}

// transitiveDependents returns the indices that transitively depend on k.
func transitiveDependents(deps [][]int, k int) map[int]bool {
	out := map[int]bool{}
	for i := k + 1; i < len(deps); i++ {
		for _, d := range deps[i] {
			if d == k || out[d] {
				out[i] = true
				break
			}
		}
	}
	return out
}

// buildFaultDAG materializes the random DAG as a workflow with the step at
// failAt wrapped in a permanently failing Chaos.
func buildFaultDAG(deps [][]int, failAt int) (*etl.Workflow, *sync.Mutex, map[string]bool) {
	mu := &sync.Mutex{}
	ran := map[string]bool{}
	w := &etl.Workflow{Name: "chaos-dag"}
	for i := range deps {
		var ds []string
		for _, d := range deps[i] {
			ds = append(ds, stepID(d))
		}
		var comp etl.Component = tracked{id: stepID(i), mu: mu, ran: ran}
		if i == failAt {
			comp = &faulty.Chaos{FailForever: true}
		}
		w.Add(stepID(i), comp, ds...)
	}
	return w, mu, ran
}

func stepID(i int) string { return fmt.Sprintf("s%d", i) }

// TestRunParallelFaultInjection injects a permanent failure at every step
// index of several random DAGs and asserts that a parallel Execute (a) returns —
// i.e. its WaitGroup drains and no worker is left behind, (b) surfaces the
// injected error naming the failed step, and (c) under ContinueOnError
// skips exactly the failed step's transitive dependents while everything
// else still runs.
func TestRunParallelFaultInjection(t *testing.T) {
	base := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(7))
	const n = 9
	for dag := 0; dag < 4; dag++ {
		deps := randomDeps(r, n)
		for failAt := 0; failAt < n; failAt++ {
			workers := 1 + (dag+failAt)%4
			// (a)+(b): fail-fast surfaces the first error and returns.
			w, _, _ := buildFaultDAG(deps, failAt)
			_, err := w.Execute(context.Background(), etl.NewContext(nil), etl.RunPolicy{}, workers)
			if err == nil {
				t.Fatalf("dag %d failAt %d: no error", dag, failAt)
			}
			if !errors.Is(err, faulty.ErrInjected) {
				t.Fatalf("dag %d failAt %d: err = %v, want ErrInjected", dag, failAt, err)
			}
			if !strings.Contains(err.Error(), "step "+fmt.Sprintf("%q", stepID(failAt))) {
				t.Fatalf("dag %d failAt %d: err %q does not name the failed step", dag, failAt, err)
			}

			// (c): ContinueOnError prunes exactly the transitive dependents.
			w2, mu, ran := buildFaultDAG(deps, failAt)
			rep, err := w2.Execute(context.Background(), etl.NewContext(nil), etl.RunPolicy{ContinueOnError: true}, workers)
			if err != nil {
				t.Fatalf("dag %d failAt %d: ContinueOnError returned %v", dag, failAt, err)
			}
			if got := rep.Failed(); len(got) != 1 || got[0] != stepID(failAt) {
				t.Fatalf("dag %d failAt %d: failed = %v", dag, failAt, got)
			}
			wantSkipped := transitiveDependents(deps, failAt)
			skipped := map[string]bool{}
			for _, id := range rep.Skipped() {
				skipped[id] = true
			}
			if len(skipped) != len(wantSkipped) {
				t.Fatalf("dag %d failAt %d: skipped %v, want %d dependents", dag, failAt, rep.Skipped(), len(wantSkipped))
			}
			mu.Lock()
			for i := 0; i < n; i++ {
				id := stepID(i)
				switch {
				case i == failAt:
					if rep.Step(id).Status != etl.StepFailed {
						t.Errorf("dag %d failAt %d: step %s = %v, want failed", dag, failAt, id, rep.Step(id).Status)
					}
				case wantSkipped[i]:
					if !skipped[id] {
						t.Errorf("dag %d failAt %d: dependent %s not skipped", dag, failAt, id)
					}
					if ran[id] {
						t.Errorf("dag %d failAt %d: skipped step %s ran", dag, failAt, id)
					}
					if got := rep.Step(id).SkippedBecause; len(got) == 0 {
						t.Errorf("dag %d failAt %d: step %s has no skip cause", dag, failAt, id)
					}
				default:
					if !ran[id] {
						t.Errorf("dag %d failAt %d: independent step %s did not run", dag, failAt, id)
					}
					if rep.Step(id).Status != etl.StepOK {
						t.Errorf("dag %d failAt %d: step %s = %v, want ok", dag, failAt, id, rep.Step(id).Status)
					}
				}
			}
			mu.Unlock()
		}
	}
	// No goroutine leak: worker counts settle back to the baseline.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Errorf("goroutines leaked: %d running, baseline %d", got, base)
	}
}

// TestExecutePanicContainedAndRetried: a step that panics on its first
// attempt is converted to a step error and succeeds on retry.
func TestExecutePanicContainedAndRetried(t *testing.T) {
	w := &etl.Workflow{Name: "panicky"}
	ch := &faulty.Chaos{PanicOnAttempt: 1}
	w.Add("boom", ch)
	rep, err := w.Execute(context.Background(), etl.NewContext(nil), etl.RunPolicy{MaxAttempts: 2}, 1)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	res := rep.Step("boom")
	if res.Status != etl.StepOK || res.Attempts != 2 {
		t.Fatalf("step = %v attempts=%d, want ok after 2 attempts", res.Status, res.Attempts)
	}
	if ch.Attempts() != 2 {
		t.Fatalf("chaos attempts = %d", ch.Attempts())
	}

	// A persistent panic fails the step with a contained error.
	w2 := &etl.Workflow{Name: "panicky2"}
	w2.Add("boom", &faulty.Chaos{PanicOnAttempt: 1})
	_, err = w2.Execute(context.Background(), etl.NewContext(nil), etl.RunPolicy{}, 2)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want contained panic", err)
	}
}
