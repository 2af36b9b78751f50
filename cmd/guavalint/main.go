// Command guavalint runs guava's repo-invariant linter (internal/lint) over
// a source tree: determinism of the relational/ETL core, metric names
// documented in OBSERVABILITY.md, mutex-guarded field discipline,
// context-first Run methods, and no dead exports under internal/. Zero
// dependencies — go/ast and go/parser only.
//
// Usage:
//
//	guavalint [root]
//
// root defaults to ".". Exit status is 0 when no findings, 1 when at least
// one, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"guava/internal/lint"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("guavalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: guavalint [root]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root := "."
	switch fs.NArg() {
	case 0:
	case 1:
		root = fs.Arg(0)
	default:
		fs.Usage()
		return 2
	}
	findings, err := lint.Lint(root, lint.DefaultOptions())
	if err != nil {
		fmt.Fprintf(stderr, "guavalint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "guavalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
