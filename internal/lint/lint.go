// Package lint is guava's zero-dependency repo-invariant linter: five
// structural rules over the Go source tree that gofmt and go vet do not
// cover, built on go/ast and go/parser alone.
//
//   - determinism: the relational engine and the ETL compiler must be pure
//     functions of their inputs — no wall-clock reads (time.Now, time.Since)
//     and no math/rand imports inside the deterministic packages. The
//     resilient executor is exempt (its backoff and metrics are timing by
//     nature), as are tests.
//   - obs-names: every metric name recorded in code (a string literal passed
//     to Counter/Gauge/Histogram) must appear in OBSERVABILITY.md's metric
//     table — the doc is the registry of record, and an undocumented counter
//     is invisible to operators.
//   - mutex-guard: a struct field group declared line-contiguously after a
//     sync.Mutex/sync.RWMutex field is guarded by it; any function touching
//     a guarded field must also take that mutex (or be named *Locked, the
//     caller-holds-the-lock convention).
//   - ctx-first: exported Run-prefixed functions with parameters take a
//     context.Context first, and no function buries a context.Context after
//     other parameters.
//   - dead-export: an exported top-level func, type, var or const of a
//     package under internal/ has a non-test caller in another package —
//     the facade, cmd/ and examples/ count, cmd/coribench and bench/ do not
//     — or an allowlist entry saying why it stays. Code only a test or a
//     benchmark exercises is deleted, unexported or justified.
//
// Findings are deterministic: sorted by file, line, rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	File string // path relative to the linted root
	Line int
	Rule string // determinism | obs-names | mutex-guard | ctx-first | dead-export
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Msg)
}

// Options configures a lint run. The zero value disables the determinism,
// obs-names and dead-export rules (no dirs, no doc, no allowlist);
// DefaultOptions returns guava's repo configuration.
type Options struct {
	// DeterministicDirs are root-relative directories whose non-test files
	// must not read the wall clock or import math/rand.
	DeterministicDirs []string
	// DeterminismAllow exempts file basenames from the determinism rule
	// (the executor's timing code).
	DeterminismAllow map[string]bool
	// ObsDoc is the root-relative markdown file whose metric table is the
	// registry of record for obs-names; "" disables the rule.
	ObsDoc string
	// deadExportAllow exempts exports from the dead-export rule, keyed
	// "<root-relative package dir>.<Name>", each with a one-line reason;
	// nil disables the rule, and only DefaultOptions enables it. The module
	// path comes from root's go.mod.
	deadExportAllow map[string]string
}

// DefaultOptions is the configuration guavalint runs with on this repo.
func DefaultOptions() Options {
	return Options{
		DeterministicDirs: []string{
			"internal/relstore",
			"internal/patterns",
			"internal/etl",
			"internal/textsrc",
		},
		DeterminismAllow: map[string]bool{
			"exec.go":   true, // executor: backoff, deadlines, step timing
			"policy.go": true, // RunPolicy: deadline arithmetic
		},
		ObsDoc:          "OBSERVABILITY.md",
		deadExportAllow: deadExportAllowlist(),
	}
}

// Lint checks every Go package under root and returns the sorted findings.
func Lint(root string, opts Options) ([]Finding, error) {
	pkgs, fset, err := loadPackages(root)
	if err != nil {
		return nil, err
	}

	var obsNames *metricDoc
	if opts.ObsDoc != "" {
		raw, err := os.ReadFile(filepath.Join(root, opts.ObsDoc))
		if err != nil {
			return nil, fmt.Errorf("lint: obs-names doc: %w", err)
		}
		obsNames = parseMetricDoc(string(raw))
	}
	var module string
	if opts.deadExportAllow != nil {
		if module, err = modulePath(root); err != nil {
			return nil, err
		}
	}
	detDirs := make(map[string]bool, len(opts.DeterministicDirs))
	for _, d := range opts.DeterministicDirs {
		detDirs[filepath.ToSlash(d)] = true
	}

	var out []Finding
	emit := func(pos token.Pos, rule, format string, args ...any) {
		p := fset.Position(pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out = append(out, Finding{
			File: filepath.ToSlash(rel),
			Line: p.Line,
			Rule: rule,
			Msg:  fmt.Sprintf(format, args...),
		})
	}

	for _, pkg := range pkgs {
		for _, file := range pkg.files {
			if detDirs[pkg.relDir] && !opts.DeterminismAllow[filepath.Base(file.path)] {
				checkDeterminism(file, emit)
			}
			if obsNames != nil {
				checkObsNames(file, obsNames, emit)
			}
			checkCtxFirst(file, emit)
		}
		checkMutexGuards(pkg, fset, emit)
	}
	if opts.deadExportAllow != nil {
		checkDeadExports(pkgs, module, opts.deadExportAllow, emit)
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out, nil
}

// srcFile is one parsed non-test source file plus its import table.
type srcFile struct {
	path    string
	ast     *ast.File
	imports map[string]string // local name -> import path
}

// srcPkg groups a directory's files (methods and the structs they guard may
// live in different files of the same package).
type srcPkg struct {
	relDir string
	files  []*srcFile
}

// loadPackages parses every non-test .go file under root, grouped by
// directory. Hidden directories, testdata, and vendor trees are skipped.
func loadPackages(root string) ([]*srcPkg, *token.FileSet, error) {
	fset := token.NewFileSet()
	byDir := map[string]*srcPkg{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "node_modules") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("lint: %w", perr)
		}
		rel, rerr := filepath.Rel(root, filepath.Dir(path))
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		pkg := byDir[rel]
		if pkg == nil {
			pkg = &srcPkg{relDir: rel}
			byDir[rel] = pkg
			dirs = append(dirs, rel)
		}
		pkg.files = append(pkg.files, &srcFile{path: path, ast: f, imports: importTable(f)})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*srcPkg, 0, len(dirs))
	for _, d := range dirs {
		pkgs = append(pkgs, byDir[d])
	}
	return pkgs, fset, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: dead-export: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: dead-export: no module line in %s", filepath.Join(root, "go.mod"))
}

// importTable maps each import's local name (alias or path base) to its
// path, so selector checks survive renamed imports.
func importTable(f *ast.File) map[string]string {
	t := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		t[name] = path
	}
	return t
}

// localNameOf returns the file-local identifier bound to the given import
// path ("" when the file does not import it).
func (f *srcFile) localNameOf(path string) string {
	for name, p := range f.imports {
		if p == path {
			return name
		}
	}
	return ""
}
