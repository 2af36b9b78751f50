// Command gendata generates the synthetic CORI-like workload, entering every
// record through each vendor tool's user interface and pattern stack, then
// dumps the g-tree views (and optionally the physical table inventory) as
// CSV for inspection.
//
// With -rel the views are also written in the typed .rel relation format,
// which round-trips exactly (CSV conflates NULL with ""); -segment-rows N
// selects the v2 segment-file layout, N rows per checksummed segment, so a
// generated relation can later be scanned lazily under a byte budget (see
// STORAGE.md).
//
// With -reports a fourth, free-text contributor (Notes) is generated: the
// same seeded ground truth dictated into progress-note documents behind the
// textsrc layout. -report-corrupt injects that many out-of-vocabulary
// reports on top, so the dumped corpus exercises the extraction-miss path;
// the summary line reports how many documents diverted.
//
// Usage:
//
//	gendata [-seed 42] [-n 200] [-out DIR] [-tables]
//	        [-rel] [-segment-rows 0]
//	        [-reports] [-report-corrupt 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"guava/internal/relstore"
	"guava/internal/textsrc"
	"guava/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 42, "generator seed")
	n := flag.Int("n", 200, "records per contributor")
	out := flag.String("out", "", "directory for CSV dumps (default: stdout summary only)")
	tables := flag.Bool("tables", false, "also list each contributor's physical tables")
	rel := flag.Bool("rel", false, "also write each view to -out in the typed .rel format")
	segmentRows := flag.Int("segment-rows", 0, "with -rel, write the v2 segment layout with this many rows per segment (0 = v1)")
	reports := flag.Bool("reports", false, "also generate the free-text Notes contributor and dump its report corpus")
	reportCorrupt := flag.Int("report-corrupt", 0, "with -reports, inject this many out-of-vocabulary reports")
	flag.Parse()

	contribs, err := workload.BuildAll(*seed, *n)
	if err != nil {
		fail(err)
	}
	for _, c := range contribs {
		rows, err := c.Stack.Read(c.DB, c.Info)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-10s %4d records, pattern stack %s\n", c.Name, rows.Len(), c.Stack.Describe())
		if *tables {
			pt, err := c.Stack.PhysicalTables(c.Info)
			if err != nil {
				fail(err)
			}
			fmt.Printf("           physical: %s\n", strings.Join(pt, ", "))
		}
		if *out == "" {
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		path := filepath.Join(*out, c.Name+".csv")
		if err := writeFile(path, func(f *os.File) error { return relstore.WriteCSV(f, rows) }); err != nil {
			fail(err)
		}
		fmt.Printf("           wrote %s\n", path)
		if *rel {
			path := filepath.Join(*out, c.Name+".rel")
			err := writeFile(path, func(f *os.File) error {
				if *segmentRows > 0 {
					return relstore.WriteTypedSegmented(f, rows, *segmentRows)
				}
				return relstore.WriteTyped(f, rows)
			})
			if err != nil {
				fail(err)
			}
			fmt.Printf("           wrote %s\n", path)
		}
	}

	if *reports {
		if err := dumpReports(*seed, *n, *reportCorrupt, *out); err != nil {
			fail(err)
		}
	}
}

// dumpReports generates the free-text contributor, optionally corrupts part
// of the corpus, and dumps both the raw documents and the extracted view.
// Extraction runs through ReadDiverting — the sanity pass every generated
// corpus gets — so corrupted reports divert instead of failing the dump.
func dumpReports(seed int64, n, corrupt int, out string) error {
	c, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		return err
	}
	for i := 0; i < corrupt; i++ {
		id := c.MaxID() + int64(i+1)
		if err := c.InjectReport(id, workload.CorruptNoteBody(id)); err != nil {
			return err
		}
	}
	rows, misses, err := c.Stack.ReadDiverting(context.Background(), c.DB, c.Info, nil)
	if err != nil {
		return err
	}
	total := n + corrupt
	fmt.Printf("%-10s %4d records extracted from %d reports (%d diverted), pattern stack %s\n",
		c.Name, rows.Len(), total, total-rows.Len(), c.Stack.Describe())
	for _, m := range misses {
		fmt.Printf("           miss %s: %s (%v)\n", m.Locator, m.Rule, m.Err)
	}
	if out == "" {
		return nil
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	docs, err := c.DB.Table(textsrc.ReportsTable(c.Info.Name))
	if err != nil {
		return err
	}
	corpusPath := filepath.Join(out, c.Name+"_reports.txt")
	err = writeFile(corpusPath, func(f *os.File) error {
		var werr error
		docs.Scan(func(r relstore.Row) bool {
			_, werr = fmt.Fprintf(f, "%s%%\n", r[1].AsString())
			return werr == nil
		})
		return werr
	})
	if err != nil {
		return err
	}
	fmt.Printf("           wrote %s\n", corpusPath)
	csvPath := filepath.Join(out, c.Name+".csv")
	if err := writeFile(csvPath, func(f *os.File) error { return relstore.WriteCSV(f, rows) }); err != nil {
		return err
	}
	fmt.Printf("           wrote %s\n", csvPath)
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
	os.Exit(1)
}
