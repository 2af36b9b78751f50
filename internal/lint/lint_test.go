package lint

import (
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a fake repo in a temp dir: keys are root-relative
// slash paths, values are file contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func lintTree(t *testing.T, files map[string]string, opts Options) []Finding {
	t.Helper()
	fs, err := Lint(writeTree(t, files), opts)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	return fs
}

// wantFinding asserts exactly one finding fired for the given rule and that
// its message carries the substring.
func wantFinding(t *testing.T, fs []Finding, rule, msgPart string) {
	t.Helper()
	var hits []Finding
	for _, f := range fs {
		if f.Rule == rule {
			hits = append(hits, f)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("rule %s: got %d findings %v, want 1", rule, len(hits), fs)
	}
	if !strings.Contains(hits[0].Msg, msgPart) {
		t.Fatalf("rule %s: message %q does not contain %q", rule, hits[0].Msg, msgPart)
	}
}

func wantClean(t *testing.T, fs []Finding) {
	t.Helper()
	if len(fs) != 0 {
		t.Fatalf("expected no findings, got %v", fs)
	}
}

// detOpts lints internal/core as a deterministic dir with no obs doc.
func detOpts() Options {
	return Options{DeterministicDirs: []string{"internal/core"}}
}

func TestDeterminismSeededViolation(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"internal/core/scan.go": `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}, detOpts())
	wantFinding(t, fs, "determinism", "time.Now")
}

func TestDeterminismRandImport(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"internal/core/shuffle.go": `package core

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`,
	}, detOpts())
	wantFinding(t, fs, "determinism", "math/rand")
}

func TestDeterminismAliasAndAllowlist(t *testing.T) {
	// A renamed time import is still caught; an allowlisted basename and a
	// _test.go file are not; time.Sleep is permitted (it does not observe).
	files := map[string]string{
		"internal/core/aliased.go": `package core

import clock "time"

func T() int64 { return clock.Now().Unix() }
`,
		"internal/core/exec.go": `package core

import "time"

func Backoff() int64 { return time.Now().Unix() }
`,
		"internal/core/scan_test.go": `package core

import "time"

func testStamp() int64 { return time.Now().Unix() }
`,
		"internal/core/wait.go": `package core

import "time"

func Pause() { time.Sleep(time.Millisecond) }
`,
	}
	opts := detOpts()
	opts.DeterminismAllow = map[string]bool{"exec.go": true}
	fs := lintTree(t, files, opts)
	wantFinding(t, fs, "determinism", "time.Now")
	if fs[0].File != "internal/core/aliased.go" {
		t.Fatalf("finding in %s, want aliased.go", fs[0].File)
	}
}

func TestDeterminismOutsideDirsClean(t *testing.T) {
	wantClean(t, lintTree(t, map[string]string{
		"internal/other/free.go": `package other

import "time"

func Stamp() int64 { return time.Now().Unix() }
`,
	}, detOpts()))
}

const obsDoc = "# Metrics\n\n" +
	"| metric | type | meaning |\n" +
	"|---|---|---|\n" +
	"| `etl.steps.ok` / `.failed` | counter | step outcomes |\n" +
	"| `relstore.ops.<op>` | counter | per-operator row counts |\n"

func TestObsNamesSeededViolation(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"OBSERVABILITY.md": obsDoc,
		"internal/m/m.go": `package m

type Registry struct{}

func (r *Registry) Counter(name string) *Registry { return r }

func Record(r *Registry) { r.Counter("etl.steps.undocumented") }
`,
	}, Options{ObsDoc: "OBSERVABILITY.md"})
	wantFinding(t, fs, "obs-names", "etl.steps.undocumented")
}

func TestObsNamesDocumentedAndWildcardClean(t *testing.T) {
	// Exact name, dot-suffix expansion, and a <op> wildcard all count as
	// documented; dynamically built names are out of scope.
	wantClean(t, lintTree(t, map[string]string{
		"OBSERVABILITY.md": obsDoc,
		"internal/m/m.go": `package m

type Registry struct{}

func (r *Registry) Counter(name string) *Registry { return r }

func Record(r *Registry, op string) {
	r.Counter("etl.steps.ok")
	r.Counter("etl.steps.failed")
	r.Counter("relstore.ops.scan_where")
	r.Counter("relstore.ops." + op)
}
`,
	}, Options{ObsDoc: "OBSERVABILITY.md"}))
}

func TestMutexGuardSeededViolation(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"internal/g/g.go": `package g

import "sync"

type Cache struct {
	name string

	mu      sync.Mutex
	entries map[string]int
}

func (c *Cache) Peek(k string) int { return c.entries[k] }

func (c *Cache) Get(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[k]
}

func (c *Cache) getLocked(k string) int { return c.entries[k] }

func NewCache() *Cache { return &Cache{entries: map[string]int{}} }

func (c *Cache) Name() string { return c.name }
`,
	}, Options{})
	wantFinding(t, fs, "mutex-guard", `"entries" of Cache`)
	if fs[0].Msg == "" || !strings.Contains(fs[0].Msg, "Peek") {
		t.Fatalf("finding should name the offending function Peek: %v", fs[0])
	}
}

func TestMutexGuardGroupEndsAtLineGap(t *testing.T) {
	// A blank line ends the guarded group: "free" below the gap may be read
	// without the lock.
	wantClean(t, lintTree(t, map[string]string{
		"internal/g/g.go": `package g

import "sync"

type Box struct {
	mu   sync.RWMutex
	held int

	free int
}

func (b *Box) Free() int { return b.free }

func (b *Box) Held() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.held
}
`,
	}, Options{}))
}

func TestMutexGuardAmbiguousFieldNameSkipped(t *testing.T) {
	// "n" is declared by two structs in the package, so syntactic
	// attribution would guess; the rule stays silent instead.
	wantClean(t, lintTree(t, map[string]string{
		"internal/g/g.go": `package g

import "sync"

type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	n int
}

func Read(b *B) int { return b.n }
`,
	}, Options{}))
}

func TestCtxFirstSeededViolation(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"internal/r/r.go": `package r

import "context"

type Job struct{}

func (j *Job) RunAll(workers int) error { _ = context.Background(); return nil }
`,
	}, Options{})
	wantFinding(t, fs, "ctx-first", "RunAll")
}

func TestCtxFirstBuriedContext(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"internal/r/r.go": `package r

import "context"

func Walk(path string, ctx context.Context) {}
`,
	}, Options{})
	wantFinding(t, fs, "ctx-first", "position 1")
}

func TestCtxFirstCompliantAndExemptClean(t *testing.T) {
	// ctx-first Run methods, zero-param Run, and unexported runners are fine.
	wantClean(t, lintTree(t, map[string]string{
		"internal/r/r.go": `package r

import "context"

type Job struct{}

func (j *Job) Run(ctx context.Context, workers int) error { return nil }

func (j *Job) RunOnce() {}

func (j *Job) runAll(workers int) {}

func Runtime(n int) int { return n }
`,
	}, Options{}))
}

// deadOpts enables the dead-export rule with the given allowlist.
func deadOpts(allow map[string]string) Options {
	return Options{deadExportAllow: allow}
}

func TestDeadExportSeededViolation(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"go.mod": "module m\n",
		"internal/core/core.go": `package core

type T struct{ Field Inner }

type Inner struct{}

func (T) Method() Result { return Result{} }

type Result struct{}

func Used() T { return T{} }

func Dead() {}

func helper() {}
`,
		"cmd/app/main.go": `package main

import "m/internal/core"

func main() { core.Used() }
`,
	}, deadOpts(map[string]string{}))
	// T, Inner and Result reach callers through Used's signature, T's
	// exported field and T's exported method; Dead reaches nobody.
	wantFinding(t, fs, "dead-export", "core.Dead has no non-test caller")
}

func TestDeadExportIgnoredCallersDoNotCount(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"go.mod": "module m\n",
		"internal/core/core.go": `package core

func Bench() {}

func Harness() {}

func Tested() {}

func Facade() {}

func Example() {}

func Sibling() {}
`,
		"cmd/coribench/main.go": `package main

import "m/internal/core"

func main() { core.Bench() }
`,
		"bench/driver.go": `package main

import "m/internal/core"

func drive() { core.Harness() }
`,
		"internal/other/other_test.go": `package other

import (
	"testing"

	c "m/internal/core"
)

func TestX(t *testing.T) { c.Tested() }
`,
		"facade.go": `package m

import "m/internal/core"

func F() { core.Facade() }
`,
		"examples/demo/main.go": `package main

import "m/internal/core"

func main() { core.Example() }
`,
		"internal/other/other.go": `package other

import "m/internal/core"

func O() { core.Sibling() }
`,
	}, deadOpts(map[string]string{}))
	var got []string
	for _, f := range fs {
		if f.Rule != "dead-export" {
			t.Fatalf("unexpected finding %v", f)
		}
		got = append(got, f.Msg[:strings.Index(f.Msg, " has")])
	}
	want := []string{"core.Bench", "core.Harness", "core.Tested", "other.O"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dead exports %v, want %v", got, want)
	}
}

func TestDeadExportConstGroupsAndAllowlist(t *testing.T) {
	fs := lintTree(t, map[string]string{
		"go.mod": "module m\n",
		"internal/core/core.go": `package core

type Kind int

const (
	KindA Kind = iota
	KindB
)

const (
	ModeX = iota
	ModeY
)

const (
	LevelLow = iota
	LevelHigh
)

func Use(k Kind) {}

func Kept() {}

var Lone = 1
`,
		"main.go": `package main

import "m/internal/core"

func main() { core.Use(0); _ = core.ModeY }
`,
	}, deadOpts(map[string]string{"internal/core.Kept": "paper artifact"}))
	// KindA/KindB live through their type, ModeX through ModeY, Kept
	// through the allowlist; LevelLow/LevelHigh and Lone are dead.
	var got []string
	for _, f := range fs {
		got = append(got, f.Msg[:strings.Index(f.Msg, " has")])
	}
	want := []string{"core.LevelLow, LevelHigh", "core.Lone"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("dead exports %v, want %v", got, want)
	}
}

// TestDeadExportAllowlistIsTight: every allowlist entry must name an export
// the rule flags without it, so an entry whose export gained a caller or
// went away does not linger.
func TestDeadExportAllowlistIsTight(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Lint(root, deadOpts(map[string]string{}))
	if err != nil {
		t.Fatal(err)
	}
	dead := map[string]bool{}
	for _, f := range fs {
		if f.Rule != "dead-export" {
			continue
		}
		msg := f.Msg[:strings.Index(f.Msg, " has")]
		for _, name := range strings.Split(msg[strings.Index(msg, ".")+1:], ", ") {
			dead[path.Dir(f.File)+"."+name] = true
		}
	}
	for key := range DefaultOptions().deadExportAllow {
		if !dead[key] {
			t.Errorf("allowlist entry %s names no dead export", key)
		}
	}
}

// TestRepoIsClean is the acceptance gate: guava's own tree must produce zero
// findings under the default configuration guavalint ships with.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Lint(root, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
