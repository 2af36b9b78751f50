package etl

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"guava/internal/relstore"
)

// TestRunParallelMatchesSerial: the compiled study run in parallel produces
// the same output as the serial run.
func TestRunParallelMatchesSerial(t *testing.T) {
	spec := studyFixture(t)
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := compiled.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		parallel, _, err := compiled.RunResilient(context.Background(), RunPolicy{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !parallel.EqualUnordered(serial) {
			t.Errorf("workers=%d: parallel output differs", workers)
		}
	}
}

// TestRunParallelWideFanout drives a wide diamond: many independent branches
// feeding one union.
func TestRunParallelWideFanout(t *testing.T) {
	ctx := NewContext(nil)
	src := ctx.DB("src")
	s := relstore.MustSchema(relstore.Column{Name: "K", Type: relstore.KindInt})
	tab, err := src.CreateTable("T", s)
	if err != nil {
		t.Fatal(err)
	}
	const total = 64
	for i := 0; i < total; i++ {
		if err := tab.Insert(relstore.Row{relstore.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	w := &Workflow{Name: "fan"}
	var branches []TableRef
	var deps []string
	for i := 0; i < 16; i++ {
		ref := TableRef{DB: "tmp", Table: fmt.Sprintf("B%d", i)}
		id := w.Add(fmt.Sprintf("branch%d", i), &Query{
			From:  TableRef{"src", "T"},
			Where: relstore.Cmp(relstore.CmpEq, relstore.Arith(relstore.OpMod, relstore.Col("K"), relstore.Lit(relstore.Int(16))), relstore.Lit(relstore.Int(int64(i)))),
			To:    ref,
		})
		branches = append(branches, ref)
		deps = append(deps, id)
	}
	w.Add("union", &Union{From: branches, To: TableRef{"out", "U"}}, deps...)
	if _, err := w.Execute(context.Background(), ctx, RunPolicy{}, 4); err != nil {
		t.Fatal(err)
	}
	out, err := ctx.DB("out").Table("U")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != total {
		t.Errorf("union rows = %d, want %d", out.Len(), total)
	}
}

type failingComponent struct{}

func (failingComponent) Name() string                                { return "fail" }
func (failingComponent) Describe() string                            { return "always fails" }
func (failingComponent) Run(ctx context.Context, env *Context) error { return fmt.Errorf("boom") }

// TestRunParallelErrorPropagation: a failing step aborts and reports.
func TestRunParallelErrorPropagation(t *testing.T) {
	ctx := NewContext(nil)
	src := ctx.DB("src")
	s := relstore.MustSchema(relstore.Column{Name: "K", Type: relstore.KindInt})
	if _, err := src.CreateTable("T", s); err != nil {
		t.Fatal(err)
	}
	w := &Workflow{Name: "failing"}
	w.Add("ok", &Query{From: TableRef{"src", "T"}, To: TableRef{"tmp", "A"}})
	w.Add("bad", failingComponent{})
	w.Add("after", &Query{From: TableRef{"tmp", "A"}, To: TableRef{"tmp", "B"}}, "ok", "bad")
	_, err := w.Execute(context.Background(), ctx, RunPolicy{}, 2)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error = %v", err)
	}
	// Cycles are still detected up front.
	w2 := &Workflow{Name: "cyc"}
	w2.Add("a", failingComponent{}, "b")
	w2.Add("b", failingComponent{}, "a")
	if _, err := w2.Execute(context.Background(), ctx, RunPolicy{}, 2); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle error = %v", err)
	}
}

// TestContextConcurrentDBCreation: Context.DB is safe under concurrency and
// returns one instance per name.
func TestContextConcurrentDBCreation(t *testing.T) {
	ctx := NewContext(nil)
	results := make(chan *relstore.DB, 32)
	for i := 0; i < 32; i++ {
		go func() { results <- ctx.DB("shared") }()
	}
	first := <-results
	for i := 1; i < 32; i++ {
		if got := <-results; got != first {
			t.Fatal("Context.DB returned different instances for one name")
		}
	}
}
