// Command runstudy compiles and runs a study over the synthetic workload:
// the reference study (Habits + hypoxia over all three contributors), or the
// paper's Study 1 funnel, or Study 2 under both ex-smoker definitions. It
// can print the generated ETL plan and the per-contributor SQL and XQuery
// translations — the inspectability the paper demands of generated
// workflows.
//
// With -vet the reference study is statically vetted before compilation —
// and, once the artifacts pass, the compiled plan runs through the
// plan-level dataflow analyzer (internal/plancheck, GV21x codes): the
// diagnostics print to stderr, and the run is refused when any
// error-severity finding exists at either layer. Without -vet nothing
// changes.
//
// The reference study runs through the resilient executor: -retries,
// -step-timeout, -timeout, and -continue configure the etl.RunPolicy,
// -fail injects a permanently dead contributor extract (demonstrating
// graceful degradation), and -report prints the structured RunReport.
//
// Crash recovery (reference study): -checkpoint-dir makes every completed
// step durable on disk; -resume reuses the checkpoints from a previous
// (killed) run instead of clearing them, so only unfinished steps
// re-execute. -crash step[:before|:after] simulates the process dying at
// that step — run once with -crash, then again with -resume, to watch a
// recovery end-to-end. -quarantine-budget N diverts up to N poison rows
// per run into the dead-letter relation instead of failing their step, and
// -quarantine-out writes that relation (with provenance) to a file, or
// stdout with "-". -poison contributor plants -poison-rows NULL-key rows in
// that contributor's extract output.
//
// Warehouse refresh (reference study): -refresh merges the study output
// into the persistent warehouse in -warehouse-dir (the paper's periodic
// inclusion) instead of printing it: tables load from <name>.rel files,
// the refresh runs under the same RunPolicy switches as a normal run, the
// merge stats print, and the updated tables persist back. Run it twice
// with unchanged contributor data and the second pass reports all rows
// unchanged. A full -refresh also persists the contributors' journal
// cursors to -cursor-file (default <warehouse-dir>/cursors.json).
//
// Incremental refresh (reference study): -refresh-delta loads those
// cursors and recomputes only the entities whose journal entries lie past
// them, patching the warehouse group-wise instead of re-running the whole
// plan. -mutate-count N (with -mutate-seed) applies N deterministic random
// contributor mutations after the build, so a delta run and a from-scratch
// full run given the same flags converge on byte-identical .rel files:
//
//	runstudy -refresh -warehouse-dir w1
//	runstudy -refresh-delta -warehouse-dir w1 -mutate-seed 5 -mutate-count 25
//	runstudy -refresh -warehouse-dir w2 -mutate-seed 5 -mutate-count 25
//	cmp w1/Study_reference.rel w2/Study_reference.rel
//
// Segmented warehouse (see STORAGE.md): -segment-rows N persists each
// warehouse table in the v2 segment-file layout, N rows per checksummed
// segment, which loadWarehouse reads back transparently (ReadTyped sniffs
// the version). -dump-warehouse TABLE streams a stored table to stdout in
// canonical v1 form whatever its layout; over a v2 file the dump goes
// through a lazily-loading SegmentSet capped at -segment-budget resident
// bytes, so a relation larger than memory still dumps — and diffs cleanly
// against an in-memory-mode warehouse:
//
//	runstudy -refresh -warehouse-dir w1
//	runstudy -refresh -warehouse-dir w2 -segment-rows 64
//	runstudy -dump-warehouse Study_reference -warehouse-dir w1 > flat.txt
//	runstudy -dump-warehouse Study_reference -warehouse-dir w2 \
//	         -segment-budget 8192 > seg.txt
//	diff flat.txt seg.txt
//
// Columnar execution: -relstore-parallel bounds the worker pool relstore's
// chunked operators fan out across, and -relstore-batch sets the chunk
// width (see DESIGN.md §6.12).
//
// Free-text contributor (see DESIGN.md §6.15): -with-text adds the Notes
// contributor — the same ground truth dictated into progress-note documents
// behind the textsrc extraction layout — so the study mixes text and
// database sources. -text-append N enters N further reports after the
// build (journaled, so a -refresh-delta run picks them up and converges
// byte-identically with a full run given the same flags), and
// -text-corrupt N injects N out-of-vocabulary reports: under
// -quarantine-budget they divert into the dead-letter relation with
// report-span provenance (report id + byte range + rule id) instead of
// failing the extract step.
//
// Observability (reference study): -trace-tree prints the run's span
// tree, -trace-out writes the spans as JSON lines, -metrics prints the
// metrics snapshot, and -cpuprofile/-memprofile/-trace enable the
// stdlib profilers. See OBSERVABILITY.md for the span model and metric
// names.
//
// Usage:
//
//	runstudy [-study reference|study1|study2] [-seed 42] [-n 200]
//	         [-vet] [-plan] [-sql] [-xquery] [-rows 10]
//	         [-parallel 1] [-retries 0] [-step-timeout 0] [-timeout 0]
//	         [-continue] [-fail contributor,...] [-report]
//	         [-refresh] [-refresh-delta] [-warehouse-dir dir]
//	         [-cursor-file file] [-mutate-seed 1] [-mutate-count 0]
//	         [-segment-rows 0] [-segment-budget 0] [-dump-warehouse table]
//	         [-relstore-parallel 0] [-relstore-batch 0]
//	         [-with-text] [-text-append 0] [-text-corrupt 0]
//	         [-checkpoint-dir dir] [-resume] [-crash step[:before|:after]]
//	         [-quarantine-budget 0] [-quarantine-out file|-]
//	         [-poison contributor] [-poison-rows 1]
//	         [-trace-tree] [-trace-out spans.jsonl] [-metrics]
//	         [-cpuprofile cpu.pb] [-memprofile mem.pb] [-trace trace.out]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"guava"
	"guava/internal/baseline"
	"guava/internal/classifier"
	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/obs"
	"guava/internal/plancheck"
	"guava/internal/relstore"
	"guava/internal/vet"
	"guava/internal/workload"
)

func main() {
	studyName := flag.String("study", "reference", "study to run: reference, study1, or study2")
	seed := flag.Int64("seed", 42, "workload seed")
	n := flag.Int("n", 200, "records per contributor")
	doVet := flag.Bool("vet", false, "statically vet the study first; refuse to run on error-severity findings (reference study)")
	showPlan := flag.Bool("plan", false, "print the generated ETL workflow")
	showSQL := flag.Bool("sql", false, "print the per-contributor SQL translation")
	showXQ := flag.Bool("xquery", false, "print the per-contributor XQuery translation")
	rows := flag.Int("rows", 10, "result rows to print (reference study)")
	workers := flag.Int("parallel", 1, "worker count for the executor (<= 0 means one worker per ready step)")
	retries := flag.Int("retries", 0, "retries per step beyond the first attempt")
	stepTimeout := flag.Duration("step-timeout", 0, "deadline per step attempt (0 = none)")
	timeout := flag.Duration("timeout", 0, "deadline for the whole workflow (0 = none)")
	contOnErr := flag.Bool("continue", false, "continue past failed steps, skipping dependents (graceful degradation)")
	failContribs := flag.String("fail", "", "comma-separated contributors whose extract is forced to fail (reference study)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint completed steps into this directory (reference study)")
	resume := flag.Bool("resume", false, "reuse checkpoints from a previous run in -checkpoint-dir instead of clearing them")
	doRefresh := flag.Bool("refresh", false, "merge the study output into the warehouse in -warehouse-dir instead of printing it (reference study)")
	doDeltaRefresh := flag.Bool("refresh-delta", false, "refresh the warehouse incrementally from the contributor change journals, using the cursors persisted by a previous -refresh (reference study)")
	warehouseDir := flag.String("warehouse-dir", "", "directory holding the persistent warehouse tables for -refresh / -refresh-delta")
	cursorFile := flag.String("cursor-file", "", "path for the persisted delta cursors (default <warehouse-dir>/cursors.json)")
	mutateSeed := flag.Int64("mutate-seed", 1, "seed for -mutate-count's synthetic mutation batch")
	mutateCount := flag.Int("mutate-count", 0, "apply this many random contributor mutations (inserts/updates/deprecations) after building the workload")
	withText := flag.Bool("with-text", false, "add the free-text Notes contributor to the study (reports behind the textsrc extraction layout)")
	textAppend := flag.Int("text-append", 0, "append this many further ground-truth reports to the Notes contributor after the build (needs -with-text; journaled, so -refresh-delta picks them up)")
	textCorrupt := flag.Int("text-corrupt", 0, "inject this many out-of-vocabulary reports into the Notes contributor (needs -with-text; they quarantine under -quarantine-budget)")
	segmentRows := flag.Int("segment-rows", 0, "persist warehouse tables in the v2 segment-file layout with this many rows per segment (0 = v1 single-stream)")
	segmentBudget := flag.Int64("segment-budget", 0, "resident byte budget for -dump-warehouse over a v2 segment file (0 = unlimited)")
	dumpWarehouseTable := flag.String("dump-warehouse", "", "stream this warehouse table (v1 or v2 layout) from -warehouse-dir to stdout in canonical v1 form and exit")
	relstoreParallel := flag.Int("relstore-parallel", 0, "worker bound for relstore's chunked columnar operators (0 = default of min(GOMAXPROCS, 8))")
	relstoreBatch := flag.Int("relstore-batch", 0, "chunk width for relstore's columnar operators (0 = default 4096)")
	crashAt := flag.String("crash", "", "simulate a process crash at this step; step or step:before|:after (reference study)")
	quarBudget := flag.Int("quarantine-budget", 0, "max rows diverted to the dead-letter relation before a step fails (0 = quarantine off)")
	quarOut := flag.String("quarantine-out", "", "write the quarantined rows with provenance to this file (\"-\" = stdout)")
	poison := flag.String("poison", "", "plant poison (NULL-key) rows in this contributor's extract output (reference study)")
	poisonRows := flag.Int("poison-rows", 1, "how many rows -poison corrupts")
	showReport := flag.Bool("report", false, "print the per-step RunReport after the run")
	traceTree := flag.Bool("trace-tree", false, "print the run's span tree (reference study)")
	traceOut := flag.String("trace-out", "", "write the run's spans as JSON lines to this file (reference study)")
	showMetrics := flag.Bool("metrics", false, "print the metrics snapshot after the run (reference study)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	execTrace := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *relstoreParallel > 0 {
		relstore.SetParallelism(*relstoreParallel)
	}
	if *relstoreBatch > 0 {
		relstore.SetBatchSize(*relstoreBatch)
	}
	if *dumpWarehouseTable != "" {
		if *warehouseDir == "" {
			fail(fmt.Errorf("-dump-warehouse needs -warehouse-dir"))
		}
		if err := dumpWarehouse(*warehouseDir, *dumpWarehouseTable, *segmentBudget); err != nil {
			fail(err)
		}
		return
	}

	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "runstudy: profiling: %v\n", err)
		}
	}()

	contribs, err := workload.BuildAll(*seed, *n)
	if err != nil {
		fail(err)
	}
	if !*withText && (*textAppend > 0 || *textCorrupt > 0) {
		fail(fmt.Errorf("-text-append/-text-corrupt need -with-text"))
	}
	if *withText {
		notes, err := workload.BuildNotes(*seed+3, *n)
		if err != nil {
			fail(err)
		}
		// Appends extend the same seeded truth stream past the initial n, so a
		// delta-refresh run and a from-scratch full run given the same
		// -text-append count see identical Notes databases (the delta ≡ full
		// equivalence the CI smoke job checks with cmp).
		if *textAppend > 0 {
			extended := workload.Generate(*seed+3, *n+*textAppend)
			for _, t := range extended[*n:] {
				if err := notes.InsertTruth(t); err != nil {
					fail(err)
				}
			}
			fmt.Printf("appended %d report(s) to Notes\n", *textAppend)
		}
		for i := 0; i < *textCorrupt; i++ {
			id := notes.MaxID() + int64(i+1)
			if err := notes.InjectReport(id, workload.CorruptNoteBody(id)); err != nil {
				fail(err)
			}
		}
		if *textCorrupt > 0 {
			fmt.Printf("injected %d corrupt report(s) into Notes\n", *textCorrupt)
		}
		contribs = append(contribs, notes)
	}
	if *mutateCount > 0 {
		// Deterministic from (workload state, seed): a delta-refresh run and
		// a from-scratch full run given the same -mutate-* flags see the
		// same post-mutation contributor databases.
		batch := workload.RandomBatch(contribs, *mutateSeed, *mutateCount)
		if err := workload.Apply(contribs, batch); err != nil {
			fail(err)
		}
		fmt.Printf("applied %d synthetic mutation(s) (seed %d)\n", len(batch), *mutateSeed)
	}
	switch *studyName {
	case "reference":
		policy := etl.RunPolicy{
			MaxAttempts:        *retries + 1,
			Backoff:            10 * time.Millisecond,
			StepTimeout:        *stepTimeout,
			WorkflowTimeout:    *timeout,
			ContinueOnError:    *contOnErr,
			MaxQuarantinedRows: *quarBudget,
		}
		runReference(contribs, refOptions{
			vet:  *doVet,
			plan: *showPlan, sql: *showSQL, xquery: *showXQ, rows: *rows,
			workers: *workers, policy: policy, fail: splitList(*failContribs),
			ckptDir: *ckptDir, resume: *resume, crash: *crashAt,
			refresh: *doRefresh, refreshDelta: *doDeltaRefresh,
			warehouseDir: *warehouseDir, cursorFile: *cursorFile,
			segmentRows: *segmentRows,
			quarOut:     *quarOut, poison: *poison, poisonRows: *poisonRows,
			report:    *showReport,
			traceTree: *traceTree, traceOut: *traceOut, metrics: *showMetrics,
		})
	case "study1":
		res, err := guava.Study1(contribs)
		if err != nil {
			fail(err)
		}
		fmt.Print(res.Render())
		truth := guava.Study1Truth(contribs)
		if *res == *truth {
			fmt.Println("matches ground truth at every stage (precision = recall = 1.0)")
		} else {
			fmt.Printf("MISMATCH vs ground truth: %+v\n", truth)
		}
	case "study2":
		for _, recent := range []bool{false, true} {
			res, err := guava.Study2(contribs, recent)
			if err != nil {
				fail(err)
			}
			fmt.Print(res.Render())
		}
	default:
		fmt.Fprintf(os.Stderr, "runstudy: unknown study %q\n", *studyName)
		os.Exit(2)
	}
}

// refOptions collects the reference-study switches: what to print and how
// to execute.
type refOptions struct {
	vet               bool
	plan, sql, xquery bool
	rows              int
	workers           int
	policy            etl.RunPolicy
	fail              []string
	ckptDir           string
	resume            bool
	crash             string
	refresh           bool
	refreshDelta      bool
	warehouseDir      string
	cursorFile        string
	segmentRows       int
	quarOut           string
	poison            string
	poisonRows        int
	report            bool
	traceTree         bool
	traceOut          string
	metrics           bool
}

// observed reports whether any observability output was requested.
func (o refOptions) observed() bool { return o.traceTree || o.traceOut != "" || o.metrics }

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runReference(contribs []*workload.Contributor, opt refOptions) {
	ctx := context.Background()
	var observer *obs.Observer
	if opt.observed() {
		observer = obs.NewObserver()
		ctx = obs.WithObserver(ctx, observer)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	if opt.vet {
		rep := vet.Study(spec, nil, nil)
		fmt.Fprint(os.Stderr, rep.Text())
		if rep.HasErrors() {
			fail(fmt.Errorf("study %q failed vetting with %d error(s); fix them or drop -vet", spec.Name, rep.Count(vet.SevError)))
		}
	}
	compiled, err := etl.CompileTraced(ctx, spec)
	if err != nil {
		fail(err)
	}
	if opt.vet {
		// Second vetting layer: dataflow analysis over the compiled operator
		// trees, where contradictions invisible in the artifacts surface.
		prep := &vet.Report{}
		plancheck.Analyze(compiled, prep, plancheck.Options{})
		prep.Sort()
		fmt.Fprint(os.Stderr, prep.Text())
		if prep.HasErrors() {
			fail(fmt.Errorf("study %q failed plan analysis with %d error(s); fix them or drop -vet",
				spec.Name, prep.Count(vet.SevError)))
		}
	}
	if opt.plan {
		fmt.Println(compiled.Workflow.Render())
	}
	if opt.sql {
		plans, err := compiled.EmitSQLPlans()
		if err != nil {
			fail(err)
		}
		var names []string
		for n := range plans {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("-- %s\n%s\n\n", n, plans[n])
		}
	}
	if opt.xquery {
		for _, c := range spec.Contributors {
			var domains []*classifier.Classifier
			for _, col := range spec.Columns {
				domains = append(domains, c.Classifiers[col.As])
			}
			xq, err := classifier.EmitXQuery(c.Name+".xml", c.Entity, domains)
			if err != nil {
				fail(err)
			}
			fmt.Printf("(: %s :)\n%s\n\n", c.Name, xq)
		}
	}
	for _, name := range opt.fail {
		id := "extract/" + name
		if faulty.Wrap(compiled.Workflow, id, func(wrapped etl.Component) *faulty.Chaos {
			return &faulty.Chaos{Wrapped: wrapped, FailForever: true}
		}) == nil {
			fail(fmt.Errorf("-fail: no step %q in the workflow", id))
		}
	}
	if opt.ckptDir != "" {
		store := etl.NewFSCheckpointer(opt.ckptDir)
		if !opt.resume {
			// A fresh run must not silently reuse a previous run's state.
			if err := store.Clear(compiled.Fingerprint()); err != nil {
				fail(fmt.Errorf("-checkpoint-dir: %w", err))
			}
		}
		opt.policy.Checkpoint = store
	} else if opt.resume {
		fail(fmt.Errorf("-resume needs -checkpoint-dir"))
	}
	if opt.crash != "" {
		id, mode, _ := strings.Cut(opt.crash, ":")
		if mode == "" {
			mode = "before"
		}
		if mode != "before" && mode != "after" {
			fail(fmt.Errorf("-crash: mode %q is not before or after", mode))
		}
		if faulty.Wrap(compiled.Workflow, id, func(wrapped etl.Component) *faulty.Chaos {
			return &faulty.Chaos{Wrapped: wrapped,
				CrashBeforeWork: mode == "before", CrashAfterWork: mode == "after"}
		}) == nil {
			fail(fmt.Errorf("-crash: no step %q in the workflow", id))
		}
	}
	if opt.poison != "" {
		id := "extract/" + opt.poison
		if faulty.Wrap(compiled.Workflow, id, func(wrapped etl.Component) *faulty.Chaos {
			return &faulty.Chaos{Wrapped: wrapped, PoisonRows: opt.poisonRows}
		}) == nil {
			fail(fmt.Errorf("-poison: no step %q in the workflow", id))
		}
	}
	if opt.refresh || opt.refreshDelta {
		if opt.warehouseDir == "" {
			fail(fmt.Errorf("-refresh/-refresh-delta need -warehouse-dir"))
		}
		cursorFile := opt.cursorFile
		if cursorFile == "" {
			cursorFile = filepath.Join(opt.warehouseDir, "cursors.json")
		}
		warehouse := relstore.NewDB("warehouse")
		loaded, err := loadWarehouse(opt.warehouseDir, warehouse)
		if err != nil {
			fail(err)
		}
		if loaded > 0 {
			fmt.Printf("loaded %d warehouse table(s) from %s\n", loaded, opt.warehouseDir)
		}
		// The persisted cursors mark what the last run already applied: a
		// delta recomputes only journal entries past them, and either mode
		// advances them for every contributor it patched, so the next
		// -refresh-delta starts exactly where this refresh left off.
		cursors, err := etl.LoadDeltaCursors(cursorFile)
		if err != nil {
			fail(err)
		}
		mode := etl.FullRefresh
		if opt.refreshDelta {
			mode = etl.DeltaRefresh
		}
		report, rerr := compiled.Refresh(ctx, warehouse, etl.RefreshOptions{Mode: mode, Policy: opt.policy, Cursors: cursors})
		emitObservability(observer, opt)
		if rerr != nil {
			fail(rerr)
		}
		if report.Run != nil {
			writeRunReport(report.Run, opt)
		}
		if opt.refreshDelta {
			fmt.Printf("delta refresh %q into table %q: %d changed key(s), %s\n",
				spec.Name, compiled.Output.Table, report.Keys, report.Stats)
		} else {
			fmt.Printf("refresh %q into table %q: %s\n", spec.Name, compiled.Output.Table, report.Stats)
		}
		if err := saveWarehouse(opt.warehouseDir, warehouse, opt.segmentRows); err != nil {
			fail(err)
		}
		if err := cursors.Save(cursorFile); err != nil {
			fail(err)
		}
		fmt.Printf("warehouse persisted to %s\n", opt.warehouseDir)
		return
	}

	out, report, err := compiled.RunResilient(ctx, opt.policy, opt.workers)
	if report != nil {
		writeRunReport(report, opt)
	}
	emitObservability(observer, opt)
	if err != nil {
		fail(err)
	}
	fmt.Printf("study %q: %d rows\n", spec.Name, out.Len())
	head := out
	if out.Len() > opt.rows {
		head = &relstore.Rows{Schema: out.Schema, Data: out.Data[:opt.rows]}
	}
	fmt.Print(head.Format())
	// Summary: classification histogram.
	grouped, err := relstore.GroupBy(out, []string{"Smoking_D3"}, relstore.Aggregate{Kind: relstore.AggCount, As: "N"})
	if err != nil {
		fail(err)
	}
	sorted, err := relstore.SortBy(grouped, "Smoking_D3")
	if err != nil {
		fail(err)
	}
	fmt.Println("\nSmoking_D3 histogram:")
	fmt.Print(sorted.Format())
}

// writeRunReport prints what a run restored and quarantined, writes the
// dead-letter relation to -quarantine-out, and renders the per-step report
// under -report.
func writeRunReport(report *etl.RunReport, opt refOptions) {
	if restored := report.Restored(); len(restored) > 0 {
		fmt.Printf("resumed from checkpoints: %d step(s) restored (%s)\n",
			len(restored), strings.Join(restored, ", "))
	}
	if q := report.Quarantine(); q != nil && opt.quarOut != "" {
		if err := writeQuarantine(opt.quarOut, q); err != nil {
			fail(err)
		}
	}
	if report.Quarantined > 0 {
		fmt.Printf("quarantined rows: %d\n", report.Quarantined)
	}
	if opt.report {
		fmt.Print(report.Render())
		fmt.Println()
	}
}

// emitObservability prints whichever trace/metric outputs were requested.
func emitObservability(observer *obs.Observer, opt refOptions) {
	if observer == nil {
		return
	}
	if opt.traceTree {
		fmt.Println("trace:")
		fmt.Print(obs.RenderTree(observer.Tracer.Spans()))
		fmt.Println()
	}
	if opt.traceOut != "" {
		f, ferr := os.Create(opt.traceOut)
		if ferr != nil {
			fail(ferr)
		}
		if ferr := obs.WriteSpans(f, observer.Tracer.Spans()); ferr != nil {
			f.Close()
			fail(ferr)
		}
		if ferr := f.Close(); ferr != nil {
			fail(ferr)
		}
		fmt.Printf("wrote %d spans to %s\n", observer.Tracer.Len(), opt.traceOut)
	}
	if opt.metrics {
		fmt.Println("metrics:")
		fmt.Print(observer.Metrics.Render())
		fmt.Println()
	}
}

// loadWarehouse restores every persisted table (<name>.rel, the typed
// relation format) from dir into db. A missing or empty dir is a first
// refresh, not an error.
func loadWarehouse(dir string, db *relstore.DB) (int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("-warehouse-dir: %w", err)
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rel") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return loaded, err
		}
		rows, err := relstore.ReadTyped(f)
		f.Close()
		if err != nil {
			return loaded, fmt.Errorf("warehouse table %s: %w", e.Name(), err)
		}
		table, err := db.CreateTable(strings.TrimSuffix(e.Name(), ".rel"), rows.Schema)
		if err != nil {
			return loaded, err
		}
		if err := table.InsertAll(rows.Data); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}

// saveWarehouse persists every table in db to dir as <name>.rel, sorted on
// every column — canonical bytes, so warehouses reached by different routes
// (delta refresh vs full recompute) compare equal with plain cmp. With
// segRows > 0 tables are written in the v2 segment-file layout (segRows rows
// per checksummed segment) so later runs can load them lazily under a byte
// budget; 0 keeps the v1 single-stream layout.
func saveWarehouse(dir string, db *relstore.DB, segRows int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.TableNames() {
		table, err := db.Table(name)
		if err != nil {
			return err
		}
		rows := table.Rows()
		sorted, err := relstore.SortBy(rows, rows.Schema.Names()...)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+".rel"))
		if err != nil {
			return err
		}
		if segRows > 0 {
			err = relstore.WriteTypedSegmented(f, sorted, segRows)
		} else {
			err = relstore.WriteTyped(f, sorted)
		}
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// dumpWarehouse streams one warehouse table to stdout in canonical v1 typed
// form, whatever layout it is stored in. A v2 segment file streams through a
// SegmentSet under the byte budget — segments load, emit, and evict, so the
// dump never materializes the whole relation — which is how the CI smoke job
// diffs a segment-mode warehouse against an in-memory-mode one.
func dumpWarehouse(dir, name string, budget int64) error {
	path := filepath.Join(dir, name+".rel")
	set, err := relstore.OpenSegments(path, budget)
	if err == nil {
		defer set.Close()
		w := bufio.NewWriter(os.Stdout)
		sl, err := relstore.MarshalSchemaJSON(set.Schema())
		if err != nil {
			return err
		}
		w.Write(sl)
		w.WriteByte('\n')
		var line []byte
		var rowErr error
		scanErr := set.Scan(func(r relstore.Row) bool {
			if line, rowErr = relstore.AppendRowJSON(line[:0], r); rowErr != nil {
				return false
			}
			line = append(line, '\n')
			w.Write(line)
			return true
		})
		if scanErr != nil {
			return scanErr
		}
		if rowErr != nil {
			return rowErr
		}
		return w.Flush()
	}
	// Not a v2 segment file: read the v1 stream and echo it back.
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := relstore.ReadTyped(f)
	if err != nil {
		return err
	}
	return relstore.WriteTyped(os.Stdout, rows)
}

// writeQuarantine renders the dead-letter relation to the given path ("-"
// for stdout).
func writeQuarantine(path string, q *relstore.Rows) error {
	if path == "-" {
		fmt.Println("quarantine:")
		fmt.Print(q.Format())
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(q.Format()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d quarantined row(s) to %s\n", len(q.Data), path)
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "runstudy: %v\n", err)
	os.Exit(1)
}
