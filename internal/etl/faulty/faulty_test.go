package faulty

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guava/internal/etl"
	"guava/internal/relstore"
)

// TestChaosSchedule: FailFirst fails exactly the first N attempts, the
// counter is observable, and Reset restarts the schedule.
func TestChaosSchedule(t *testing.T) {
	env := etl.NewContext(nil)
	ch := &Chaos{FailFirst: 2}
	for i := 1; i <= 2; i++ {
		if err := ch.Run(context.Background(), env); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := ch.Run(context.Background(), env); err != nil {
		t.Fatalf("attempt 3: %v", err)
	}
	if ch.Attempts() != 3 {
		t.Fatalf("attempts = %d", ch.Attempts())
	}
	ch.Reset()
	if err := ch.Run(context.Background(), env); !errors.Is(err, ErrInjected) {
		t.Fatalf("after reset: err = %v, want ErrInjected again", err)
	}

	forever := &Chaos{FailForever: true, Err: errors.New("dead source")}
	for i := 0; i < 3; i++ {
		if err := forever.Run(context.Background(), env); err == nil || err.Error() != "dead source" {
			t.Fatalf("err = %v", err)
		}
	}
}

// TestChaosBlocksAndHonorsContext: BlockUntilCancel and Delay both return
// ctx.Err() when the context dies.
func TestChaosBlocksAndHonorsContext(t *testing.T) {
	env := etl.NewContext(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (&Chaos{BlockUntilCancel: true}).Run(ctx, env); !errors.Is(err, context.Canceled) {
		t.Fatalf("block: err = %v", err)
	}
	if err := (&Chaos{Delay: 1 << 40}).Run(ctx, env); !errors.Is(err, context.Canceled) {
		t.Fatalf("delay: err = %v", err)
	}
}

// TestChaosForwardsDataflowAndWrapping: the wrapper forwards Name/Describe
// and the Reads/Writes declarations, runs the wrapped component on clean
// attempts, and Wrap splices it into a workflow by step ID.
func TestChaosForwardsDataflowAndWrapping(t *testing.T) {
	u := &etl.Union{From: []etl.TableRef{{DB: "a", Table: "T"}}, To: etl.TableRef{DB: "o", Table: "U"}}
	ch := &Chaos{Wrapped: u}
	if ch.Name() != "union" || !strings.Contains(ch.Describe(), "chaos(") {
		t.Fatalf("name=%q describe=%q", ch.Name(), ch.Describe())
	}
	if got := ch.Reads(); len(got) != 1 || got[0].String() != "a.T" {
		t.Fatalf("reads = %v", got)
	}
	if got := ch.Writes(); len(got) != 1 || got[0].String() != "o.U" {
		t.Fatalf("writes = %v", got)
	}

	// A clean chaos wrapper is transparent: the wrapped union runs.
	env := etl.NewContext(nil)
	src := env.DB("a")
	s := relstore.MustSchema(relstore.Column{Name: "K", Type: relstore.KindInt})
	tab, err := src.CreateTable("T", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(relstore.Row{relstore.Int(1)}); err != nil {
		t.Fatal(err)
	}
	w := &etl.Workflow{Name: "wrapped"}
	w.Add("load", u)
	if got := Wrap(w, "load", func(c etl.Component) *Chaos { return &Chaos{Wrapped: c} }); got == nil {
		t.Fatal("wrap missed the step")
	}
	if got := Wrap(w, "ghost", func(c etl.Component) *Chaos { return &Chaos{Wrapped: c} }); got != nil {
		t.Fatal("wrap invented a step")
	}
	if _, err := w.Execute(context.Background(), env, etl.RunPolicy{}, 1); err != nil {
		t.Fatal(err)
	}
	out, err := env.DB("o").Table("U")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("union rows = %d", out.Len())
	}
}

// TestChaosCrashModes: CrashBeforeWork skips the wrapped component entirely;
// CrashAfterWork runs it first — both return ErrCrashed.
func TestChaosCrashModes(t *testing.T) {
	env := etl.NewContext(nil)
	u := &etl.Union{From: []etl.TableRef{{DB: "a", Table: "T"}}, To: etl.TableRef{DB: "o", Table: "U"}}
	s := relstore.MustSchema(relstore.Column{Name: "K", Type: relstore.KindInt})
	tab, err := env.DB("a").CreateTable("T", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(relstore.Row{relstore.Int(1)}); err != nil {
		t.Fatal(err)
	}

	before := &Chaos{Wrapped: u, CrashBeforeWork: true}
	if err := before.Run(context.Background(), env); !errors.Is(err, ErrCrashed) {
		t.Fatalf("before: err = %v, want ErrCrashed", err)
	}
	if _, err := env.DB("o").Table("U"); err == nil {
		t.Fatal("CrashBeforeWork ran the wrapped component")
	}

	after := &Chaos{Wrapped: u, CrashAfterWork: true}
	if err := after.Run(context.Background(), env); !errors.Is(err, ErrCrashed) {
		t.Fatalf("after: err = %v, want ErrCrashed", err)
	}
	out, err := env.DB("o").Table("U")
	if err != nil || out.Len() != 1 {
		t.Fatalf("CrashAfterWork left no work behind: (%v, %v)", out, err)
	}
}

// TestChaosPoisonRows: the poisoner nulls the chosen column in the first N
// rows of the wrapped step's output and relaxes the schema so the corruption
// physically exists.
func TestChaosPoisonRows(t *testing.T) {
	env := etl.NewContext(nil)
	u := &etl.Union{From: []etl.TableRef{{DB: "a", Table: "T"}}, To: etl.TableRef{DB: "o", Table: "U"}}
	s := relstore.MustSchema(
		relstore.Column{Name: "K", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "V", Type: relstore.KindString},
	)
	tab, err := env.DB("a").CreateTable("T", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := tab.Insert(relstore.Row{relstore.Int(int64(i)), relstore.Str("v")}); err != nil {
			t.Fatal(err)
		}
	}
	ch := &Chaos{Wrapped: u, PoisonRows: 2, PoisonColumn: "K"}
	if err := ch.Run(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	out, err := env.DB("o").Table("U")
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Rows()
	idx := rows.Schema.Index("K")
	if rows.Schema.Columns[idx].NotNull {
		t.Fatal("poisoned column still NOT NULL")
	}
	nulls := 0
	for _, row := range rows.Data {
		if row[idx].IsNull() {
			nulls++
		}
	}
	if nulls != 2 {
		t.Fatalf("poisoned %d rows, want 2", nulls)
	}

	// Poison on a step with no declared writes is a loud failure, not a
	// silent no-op.
	if err := (&Chaos{PoisonRows: 1}).Run(context.Background(), env); err == nil || !strings.Contains(err.Error(), "declares no writes") {
		t.Fatalf("writeless poison: err = %v", err)
	}
}

// TestTearFile: both corruption modes change the file the way their names
// promise, and unknown modes are rejected.
func TestTearFile(t *testing.T) {
	dir := t.TempDir()
	orig := []byte("guava-ckpt v1\nsha256 abc\npayload payload payload payload\n")

	p1 := filepath.Join(dir, "trunc")
	if err := os.WriteFile(p1, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearFile(p1, TearTruncate); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(p1)
	if len(got) != len(orig)/2 || !bytes.HasPrefix(orig, got) {
		t.Fatalf("truncate: len %d of %d", len(got), len(orig))
	}

	p2 := filepath.Join(dir, "flip")
	if err := os.WriteFile(p2, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearFile(p2, TearFlip); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(p2)
	if len(got) != len(orig) || bytes.Equal(got, orig) {
		t.Fatal("flip: file unchanged or resized")
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flip changed %d bytes, want 1", diff)
	}

	if err := TearFile(p2, "melt"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := TearFile(filepath.Join(dir, "missing"), TearFlip); err == nil {
		t.Fatal("missing file accepted")
	}
}
