// Command coribench is the experiment harness: it regenerates the
// measurable rows of EXPERIMENTS.md outside `go test -bench`, printing one
// section per experiment. See EXPERIMENTS.md for how each section maps onto
// the paper's figures, tables, and hypotheses.
//
// R1 measures the robustness layer: study throughput with a fraction of
// the contributor extract chains wrapped in fault injectors (-faults),
// retried under a budget (-retries), both for transient faults that
// recover and for permanent faults absorbed by graceful degradation.
// With -observe, the R1 runs execute with tracing attached.
//
// R2 measures the observability layer itself: the same study run plain
// and with a full observer attached (spans + metrics), reporting the
// relative overhead. -max-overhead makes a too-slow tracer an error —
// the CI regression gate.
//
// R3 measures the static vetting layer: wall-time of a full vet.Study
// pass over the reference study against the compile and run it guards,
// so EXPERIMENTS.md can state the cost of vetting-before-every-run.
//
// R4 measures the crash-recovery layer: the same study run without
// checkpoints, with filesystem checkpoints (the durability overhead), and
// resumed from checkpoints after a crash at the last classify step (the
// work saved), plus a quarantine run with poison rows diverted to the
// dead-letter relation.
//
// R5 measures the serving layer: the open-loop load generator offers
// -requests Poisson arrivals of a deterministic analyst traffic mix to an
// in-process studyd server, at most -clients in flight, reporting extract
// p50/p99, cache hit ratio, and throughput for a cold and a warm pass —
// against the compile-and-run-per-request baseline (what repeated
// runstudy invocations cost). -min-speedup makes a too-small warm-cache advantage
// an error — the CI regression gate.
//
// R6 measures the incremental-refresh layer: a fixed-size mutation tick
// refreshed through the journal-driven delta path vs a full plan recompute,
// at warehouse scales 100x apart. -max-flat gates how much the delta tick
// may slow down across the scales; -min-delta-speedup gates its advantage
// over the full recompute at the largest scale.
//
// R9 measures the robustness of the serving path as a whole: an in-process
// studyd over a crash-consistent warehouse whose filesystem executes a
// storage-fault schedule (-fs-faults), under open-loop Poisson load at
// -rps for -load-duration while contributors churn and refreshes race the
// reads. -min-rps and -max-p99 gate goodput and tail latency; any hard
// error or stale read (a generation stamp going backwards) fails the run
// unconditionally.
//
// R10 measures the free-text extraction layer: the strict extraction
// rate in reports/s over the Notes corpus, the diverting read's overhead
// on clean and on partially-corrupt corpora (misses quarantine with span
// provenance instead of failing the read), and the end-to-end cost of
// adding the text arm to the reference study. -min-extract-rps gates the
// strict extraction rate — the CI regression gate.
//
// -cpuprofile, -memprofile, and -trace enable the stdlib profilers for
// any experiment selection.
//
// Usage:
//
//	coribench [-exp all|T1|H2|A1|A2|A3|R1|R2|R3|R4|R5|R6|R9|R10] [-seed 42] [-n 200]
//	          [-faults 0.33] [-retries 2] [-observe]
//	          [-max-overhead 0] [-clients 8] [-requests 400]
//	          [-min-speedup 0] [-delta-batch 24] [-max-flat 0]
//	          [-min-delta-speedup 0]
//	          [-rps 300] [-load-duration 3s] [-fs-faults torn_rename:MANIFEST@2]
//	          [-min-rps 0] [-max-p99 0] [-min-extract-rps 0]
//	          [-cpuprofile f] [-memprofile f] [-trace f]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"guava/internal/baseline"
	"guava/internal/classifier"
	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/materialize"
	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/relstore"
	"guava/internal/vet"
	"guava/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, T1, H2, A1, A2, A3, R1, R2, R3, R4, R5, R6, R9, R10")
	seed := flag.Int64("seed", 42, "workload seed")
	n := flag.Int("n", 200, "records per contributor")
	faults := flag.Float64("faults", 0.33, "fraction of contributor chains wrapped in fault injectors (R1)")
	retries := flag.Int("retries", 2, "retries per step beyond the first attempt (R1)")
	observe := flag.Bool("observe", false, "run R1 with tracing attached (smoke-tests the observability layer)")
	maxOverhead := flag.Float64("max-overhead", 0, "fail if R2 tracing overhead exceeds this percentage (0 = report only)")
	clients := flag.Int("clients", 8, "most extract requests in flight at once (R5)")
	requests := flag.Int("requests", 400, "extract arrivals offered per load pass (R5)")
	minSpeedup := flag.Float64("min-speedup", 0, "fail if R5 warm-cache p50 speedup falls below this factor (0 = report only)")
	deltaBatch := flag.Int("delta-batch", 24, "contributor mutations per refresh tick (R6)")
	maxFlat := flag.Float64("max-flat", 0, "fail if R6 delta tick latency grows by more than this factor across the warehouse scales (0 = report only)")
	minDeltaSpeedup := flag.Float64("min-delta-speedup", 0, "fail if R6 delta-vs-full speedup at the largest scale falls below this factor (0 = report only)")
	rps := flag.Float64("rps", 300, "offered open-loop arrival rate (R9)")
	loadDur := flag.Duration("load-duration", 3*time.Second, "how long the open-loop driver offers load (R9)")
	fsFaults := flag.String("fs-faults", "torn_rename:MANIFEST@2,short_write:table.rel@4,drop_sync@6", "storage fault schedule for the warehouse filesystem, kind[:pathsub][@after][~delay],... (R9)")
	minRPS := flag.Float64("min-rps", 0, "fail if R9 goodput falls below this rate (0 = report only)")
	maxP99 := flag.Duration("max-p99", 0, "fail if R9 extract p99 exceeds this duration (0 = report only)")
	minExtractRPS := flag.Float64("min-extract-rps", 0, "fail if R10 strict text extraction falls below this rate in reports/s (0 = report only)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	execTrace := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "coribench: profiling: %v\n", err)
		}
	}()

	run := func(id string) bool { return *exp == "all" || *exp == id }
	if run("T1") {
		expT1(*n)
	}
	if run("H2") {
		expH2(*seed, *n)
	}
	if run("A1") {
		expA1(*seed, *n)
	}
	if run("A2") {
		expA2(*seed, *n)
	}
	if run("A3") {
		expA3(*seed)
	}
	if run("R1") {
		expR1(*seed, *n, *faults, *retries, *observe)
	}
	if run("R2") {
		expR2(*seed, *n, *maxOverhead)
	}
	if run("R3") {
		expR3(*seed, *n)
	}
	if run("R4") {
		expR4(*seed, *n)
	}
	if run("R5") {
		expR5(*seed, *n, *clients, *requests, *minSpeedup)
	}
	if run("R6") {
		expR6(*seed, *deltaBatch, *maxFlat, *minDeltaSpeedup)
	}
	if run("R9") {
		expR9(*seed, *n, *rps, *loadDur, *fsFaults, *minRPS, *maxP99)
	}
	if run("R10") {
		expR10(*seed, *n, *minExtractRPS)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "coribench: %v\n", err)
	os.Exit(1)
}

// timeIt runs fn `reps` times and returns the per-run duration.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

// expT1: per-pattern write+read round-trip cost (Table 1).
func expT1(n int) {
	fmt.Printf("== T1: design-pattern round trips (%d records) ==\n", n)
	schema := relstore.MustSchema(
		relstore.Column{Name: "ID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Smoking", Type: relstore.KindString},
		relstore.Column{Name: "Packs", Type: relstore.KindFloat},
		relstore.Column{Name: "Hypoxia", Type: relstore.KindBool},
	)
	form := patterns.FormInfo{Name: "P", KeyColumn: "ID", Schema: schema}
	rows := make([]relstore.Row, n)
	for i := range rows {
		rows[i] = relstore.Row{
			relstore.Int(int64(i + 1)), relstore.Str("Current"),
			relstore.Float(float64(i % 6)), relstore.Bool(i%5 == 0),
		}
	}
	stacks := []struct {
		name  string
		stack *patterns.Stack
	}{
		{"Naive", patterns.NewStack(patterns.Naive{})},
		{"Split (Join on read)", patterns.NewStack(&patterns.Split{})},
		{"Generic (un-pivot on read)", patterns.NewStack(patterns.Generic{})},
		{"Audit ∘ Naive", patterns.NewStack(patterns.Naive{}, &patterns.Audit{})},
		{"Lookup ∘ Naive", patterns.NewStack(patterns.Naive{}, &patterns.Lookup{Columns: []string{"Smoking"}})},
		{"Audit ∘ Encode ∘ Generic", patterns.NewStack(patterns.Generic{}, &patterns.Audit{}, &patterns.Encode{})},
	}
	fmt.Printf("%-28s %14s %14s\n", "pattern stack", "write/rec", "read-all")
	for _, s := range stacks {
		db := relstore.NewDB("bench")
		if err := s.stack.Install(db, form); err != nil {
			fail(err)
		}
		start := time.Now()
		for _, r := range rows {
			if err := s.stack.WriteRow(db, form, r); err != nil {
				fail(err)
			}
		}
		writePer := time.Since(start) / time.Duration(n)
		readDur, err := timeIt(20, func() error {
			_, err := s.stack.Read(db, form)
			return err
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-28s %14s %14s\n", s.name, writePer, readDur)
	}
	fmt.Println()
}

// expH2: precision/recall of the classifier-specified study vs the
// once-integrated warehouse (Hypothesis #2).
func expH2(seed int64, n int) {
	fmt.Printf("== H2: precision/recall, Study 2 cohort (ex-smokers with hypoxia; %d records x 3 contributors) ==\n", n)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	truth := baseline.Study2Truth(contribs, 0)

	conds := map[string]string{
		"CORI":      "Smoking = 'Quit' AND (TransientHypoxia = TRUE OR ProlongedHypoxia = TRUE)",
		"EndoSoft":  "SmokingStatus = 'Ex-smoker' AND (O2Desat = TRUE OR O2DesatProlonged = TRUE)",
		"MedRecord": "SmokeCode = 2 AND (HypoxiaT = TRUE OR HypoxiaP = TRUE)",
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	for _, c := range spec.Contributors {
		c.Condition = conds[c.Name]
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		fail(err)
	}
	rows, err := compiled.Run()
	if err != nil {
		fail(err)
	}
	selected := map[baseline.CohortKey]bool{}
	for _, r := range rows.Data {
		selected[baseline.CohortKey{Contributor: r[1].AsString(), Key: r[0].AsInt()}] = true
	}
	m := baseline.Score(selected, truth)

	integrated, err := baseline.IntegrateOnce(contribs)
	if err != nil {
		fail(err)
	}
	mi := baseline.Score(baseline.Study2FromIntegrated(integrated), truth)

	fmt.Printf("%-28s %10s %10s %6s %6s %6s\n", "route", "precision", "recall", "TP", "FP", "FN")
	fmt.Printf("%-28s %10.3f %10.3f %6d %6d %6d\n", "GUAVA + MultiClass", m.Precision(), m.Recall(), m.TruePositives, m.FalsePositives, m.FalseNegatives)
	fmt.Printf("%-28s %10.3f %10.3f %6d %6d %6d\n", "classical full integration", mi.Precision(), mi.Recall(), mi.TruePositives, mi.FalsePositives, mi.FalseNegatives)
	fmt.Println()
}

// expA1: materialization strategies vs classifier/domain ratio (Sec 4.2,
// Figure 7).
func expA1(seed int64, n int) {
	fmt.Printf("== A1: materialization strategies vs classifier count (%d records) ==\n", n)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	cori := contribs[0]
	base, err := cori.Stack.Read(cori.DB, cori.Info)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-12s %-10s %12s %12s %10s\n", "classifiers", "strategy", "prepare", "access", "cells")
	for _, ratio := range []int{2, 8, 24} {
		cat := &materialize.Catalog{Base: base, Binds: map[string]*classifier.Bound{}, AttributeOf: map[string]string{}}
		for i := 0; i < ratio; i++ {
			name := fmt.Sprintf("Smoking_v%02d", i)
			cl, err := classifier.Parse(name, "", classifier.Target{
				Entity: "Procedure", Attribute: "Smoking", Domain: name,
				Kind: relstore.KindString, Elements: []string{"None", "Light", "Heavy"},
			}, fmt.Sprintf("None <- PacksPerDay = 0\nLight <- 0 < PacksPerDay < %d\nHeavy <- PacksPerDay >= %d", i+1, i+1))
			if err != nil {
				fail(err)
			}
			bound, err := cl.Bind(cori.Tree)
			if err != nil {
				fail(err)
			}
			cat.Binds[name] = bound
			cat.AttributeOf[name] = "Smoking"
		}
		cols := cat.Columns()
		for _, s := range []materialize.Strategy{
			&materialize.Full{}, &materialize.OnDemand{},
			&materialize.Hot{HotColumns: cols[:1]}, &materialize.Algebraic{},
		} {
			prep, err := timeIt(5, func() error { return s.Prepare(cat) })
			if err != nil {
				fail(err)
			}
			i := 0
			access, err := timeIt(50, func() error {
				_, err := s.Column(cols[i%len(cols)])
				i++
				return err
			})
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-12d %-10s %12s %12s %10d\n", ratio, s.Name(), prep, access, s.StoredCells())
		}
	}
	fmt.Println()
}

// expA2: generated workflow vs hand-written expert ETL (same output).
func expA2(seed int64, n int) {
	fmt.Printf("== A2: generated workflow vs hand-written ETL (%d records x 3 contributors) ==\n", n)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		fail(err)
	}
	gen, err := compiled.Run()
	if err != nil {
		fail(err)
	}
	hand, err := baseline.HandETL(contribs)
	if err != nil {
		fail(err)
	}
	same := gen.EqualUnordered(hand)
	genDur, err := timeIt(10, func() error { _, err := compiled.Run(); return err })
	if err != nil {
		fail(err)
	}
	handDur, err := timeIt(10, func() error { _, err := baseline.HandETL(contribs); return err })
	if err != nil {
		fail(err)
	}
	fmt.Printf("outputs identical: %v (%d rows)\n", same, gen.Len())
	fmt.Printf("%-28s %14s\n", "route", "run")
	fmt.Printf("%-28s %14s\n", "generated (GUAVA/MultiClass)", genDur)
	fmt.Printf("%-28s %14s\n", "hand-written expert ETL", handDur)
	if handDur > 0 {
		fmt.Printf("overhead factor: %.2fx\n", float64(genDur)/float64(handDur))
	}
	fmt.Println()
}

// expR1: degraded-run throughput vs the clean baseline. A fraction of the
// contributor extract chains is wrapped in deterministic fault injectors;
// the transient row retries them back to a full study, the permanent row
// runs ContinueOnError and unions the surviving contributors.
func expR1(seed int64, n int, faultFrac float64, retries int, observe bool) {
	fmt.Printf("== R1: throughput under injected faults (%d records, faults=%.2f, retries=%d, observe=%v) ==\n", n, faultFrac, retries, observe)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	policy := etl.RunPolicy{MaxAttempts: retries + 1}
	const workers = 4
	const reps = 10

	compile := func() *etl.Compiled {
		c, err := etl.Compile(spec)
		if err != nil {
			fail(err)
		}
		return c
	}
	// The faulted chains: the first ceil(frac*N) extract steps in ID order.
	var extracts []string
	for _, s := range compile().Workflow.Steps {
		if strings.HasPrefix(s.ID, "extract/") {
			extracts = append(extracts, s.ID)
		}
	}
	sort.Strings(extracts)
	k := int(math.Ceil(faultFrac * float64(len(extracts))))
	if k > len(extracts) {
		k = len(extracts)
	}
	faulted := extracts[:k]

	var spanCount int
	bench := func(c *etl.Compiled, pol etl.RunPolicy, chaos []*faulty.Chaos) (time.Duration, *relstore.Rows, *etl.RunReport) {
		var rows *relstore.Rows
		var rep *etl.RunReport
		dur, err := timeIt(reps, func() error {
			for _, ch := range chaos {
				ch.Reset()
			}
			ctx := context.Background()
			var o *obs.Observer
			if observe {
				// Fresh observer per run: realistic usage, where the caller
				// collects one span tree per study execution.
				o = obs.NewObserver()
				ctx = obs.WithObserver(ctx, o)
			}
			var err error
			rows, rep, err = c.RunResilient(ctx, pol, workers)
			if o != nil {
				spanCount = o.Tracer.Len()
			}
			return err
		})
		if err != nil {
			fail(err)
		}
		return dur, rows, rep
	}
	throughput := func(rows *relstore.Rows, dur time.Duration) float64 {
		return float64(rows.Len()) / dur.Seconds()
	}

	cleanDur, cleanRows, _ := bench(compile(), policy, nil)

	// Transient: each faulted extract fails its first `retries` attempts and
	// succeeds on the final one, so the study still completes in full.
	transient := compile()
	var transientChaos []*faulty.Chaos
	for _, id := range faulted {
		transientChaos = append(transientChaos, faulty.Wrap(transient.Workflow, id, func(wrapped etl.Component) *faulty.Chaos {
			return &faulty.Chaos{Wrapped: wrapped, FailFirst: retries}
		}))
	}
	transDur, transRows, _ := bench(transient, policy, transientChaos)

	// Permanent: the faulted extracts never recover; ContinueOnError prunes
	// their chains and unions the survivors. At least one contributor must
	// survive or there is no study output to measure.
	permFaulted := faulted
	if len(permFaulted) == len(extracts) && len(extracts) > 1 {
		permFaulted = permFaulted[:len(extracts)-1]
		fmt.Printf("(permanent scenario capped at %d faulted chains so one contributor survives)\n", len(permFaulted))
	}
	permanent := compile()
	for _, id := range permFaulted {
		faulty.Wrap(permanent.Workflow, id, func(wrapped etl.Component) *faulty.Chaos {
			return &faulty.Chaos{Wrapped: wrapped, FailForever: true}
		})
	}
	degraded := etl.RunPolicy{MaxAttempts: retries + 1, ContinueOnError: true}
	permDur, permRows, permRep := bench(permanent, degraded, nil)

	fmt.Printf("%-34s %14s %8s %14s %10s\n", "scenario", "run", "rows", "rows/s", "vs clean")
	row := func(name string, dur time.Duration, rows *relstore.Rows) {
		fmt.Printf("%-34s %14s %8d %14.0f %9.2fx\n",
			name, dur, rows.Len(), throughput(rows, dur),
			throughput(rows, dur)/throughput(cleanRows, cleanDur))
	}
	row("clean baseline", cleanDur, cleanRows)
	row(fmt.Sprintf("transient faults (%d chains)", k), transDur, transRows)
	row(fmt.Sprintf("permanent faults (%d chains)", len(permFaulted)), permDur, permRows)
	if len(permRep.DegradedContributors) > 0 {
		fmt.Printf("degraded contributors: %s\n", strings.Join(permRep.DegradedContributors, ", "))
		fmt.Printf("failed steps: %s; skipped dependents: %s\n",
			strings.Join(permRep.Failed(), ", "), strings.Join(permRep.Skipped(), ", "))
	}
	if observe {
		fmt.Printf("tracing attached: %d spans per run\n", spanCount)
	}
	fmt.Println()
}

// expR2: tracing overhead. The same study runs plain and with a full
// observer attached (fresh tracer + registry per run, the realistic
// usage); the difference is the cost of the observability layer. With
// maxOverhead > 0 an overrun is an error, making this a CI gate.
func expR2(seed int64, n int, maxOverhead float64) {
	fmt.Printf("== R2: tracing overhead (%d records x 3 contributors) ==\n", n)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		fail(err)
	}
	policy := etl.RunPolicy{}
	const workers = 4
	const reps = 30

	plainRun := func() error {
		_, _, err := compiled.RunResilient(context.Background(), policy, workers)
		return err
	}
	var spanCount, metricCount int
	tracedRun := func() error {
		o := obs.NewObserver()
		ctx := obs.WithObserver(context.Background(), o)
		_, _, err := compiled.RunResilient(ctx, policy, workers)
		spanCount = o.Tracer.Len()
		metricCount = len(o.Metrics.Snapshot())
		return err
	}
	// Warm caches and the scheduler before timing either side.
	for i := 0; i < 3; i++ {
		if err := plainRun(); err != nil {
			fail(err)
		}
		if err := tracedRun(); err != nil {
			fail(err)
		}
	}
	plainDur, err := timeIt(reps, plainRun)
	if err != nil {
		fail(err)
	}
	tracedDur, err := timeIt(reps, tracedRun)
	if err != nil {
		fail(err)
	}
	overhead := (float64(tracedDur) - float64(plainDur)) / float64(plainDur) * 100
	fmt.Printf("%-34s %14s\n", "configuration", "run")
	fmt.Printf("%-34s %14s\n", "plain (no observer)", plainDur)
	fmt.Printf("%-34s %14s\n", fmt.Sprintf("traced (%d spans, %d metrics)", spanCount, metricCount), tracedDur)
	fmt.Printf("tracing overhead: %+.1f%%\n", overhead)
	if maxOverhead > 0 && overhead > maxOverhead {
		fail(fmt.Errorf("R2: tracing overhead %.1f%% exceeds budget %.1f%%", overhead, maxOverhead))
	}
	fmt.Println()
}

// expR3: static vetting cost. One vet.Study pass over the reference study
// (the full diagnostics engine: per-classifier satisfiability, context
// checks, pattern-stack rewrites, cross-artifact study checks) is timed
// against the ETL compile and run it gates, answering "what does -vet on
// every study execution cost?".
func expR3(seed int64, n int) {
	fmt.Printf("== R3: static vetting cost vs ETL (%d records x 3 contributors) ==\n", n)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	const reps = 30
	var vetRep *vet.Report
	vetDur, err := timeIt(reps, func() error {
		vetRep = vet.Study(spec, nil, nil)
		return nil
	})
	if err != nil {
		fail(err)
	}
	compileDur, err := timeIt(reps, func() error {
		_, err := etl.Compile(spec)
		return err
	})
	if err != nil {
		fail(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		fail(err)
	}
	runDur, err := timeIt(reps, func() error {
		_, err := compiled.Run()
		return err
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-34s %14s\n", "stage", "wall-time")
	fmt.Printf("%-34s %14s\n",
		fmt.Sprintf("vet.Study (%d diagnostics)", len(vetRep.Diags)), vetDur)
	fmt.Printf("%-34s %14s\n", "etl.Compile", compileDur)
	fmt.Printf("%-34s %14s\n", "compiled.Run", runDur)
	etlDur := compileDur + runDur
	fmt.Printf("vetting overhead vs compile+run: %.1f%%\n",
		float64(vetDur)/float64(etlDur)*100)
	if vetRep.HasErrors() {
		fail(fmt.Errorf("R3: reference study has vet errors:\n%s", vetRep.Text()))
	}
	fmt.Println()
}

// expR4: crash recovery. Four scenarios over the reference study: the
// no-checkpoint baseline; the same run writing a filesystem checkpoint per
// completed step (the durability tax); a resume from checkpoints after a
// simulated crash at the last classify step (the work saved — only the
// crashed step and the union re-execute); and a quarantined run where
// poison rows divert to the dead-letter relation instead of failing their
// chain.
func expR4(seed int64, n int) {
	fmt.Printf("== R4: checkpointed runs, resume after crash, quarantine (%d records x 3 contributors) ==\n", n)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	compile := func() *etl.Compiled {
		c, err := etl.Compile(spec)
		if err != nil {
			fail(err)
		}
		return c
	}
	const workers = 4
	const reps = 10
	dir, err := os.MkdirTemp("", "coribench-r4-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	store := etl.NewFSCheckpointer(dir)
	fp := compile().Fingerprint()

	// Baseline: no checkpoints.
	base := compile()
	baseDur, err := timeIt(reps, func() error {
		_, _, err := base.RunResilient(context.Background(), etl.RunPolicy{}, workers)
		return err
	})
	if err != nil {
		fail(err)
	}

	// Checkpointed: every completed step becomes durable; cleared between
	// reps so each rep pays the full save cost.
	ckpt := compile()
	var saved int
	ckptDur, err := timeIt(reps, func() error {
		if err := store.Clear(fp); err != nil {
			return err
		}
		_, _, err := ckpt.RunResilient(context.Background(), etl.RunPolicy{Checkpoint: store}, workers)
		if err == nil {
			steps, serr := store.Steps(fp)
			if serr != nil {
				return serr
			}
			saved = len(steps)
		}
		return err
	})
	if err != nil {
		fail(err)
	}

	// Resume: crash after the last classify step's work, then re-run clean
	// against the surviving checkpoints. Only the crashed step and the
	// union re-execute; the timing is the resume alone.
	var classifies []string
	for _, s := range compile().Workflow.Steps {
		if strings.HasPrefix(s.ID, "classify/") {
			classifies = append(classifies, s.ID)
		}
	}
	sort.Strings(classifies)
	crashStep := classifies[len(classifies)-1]
	resume := compile()
	var restored, rerun int
	var resumeSum time.Duration
	for i := 0; i < reps; i++ {
		if err := store.Clear(fp); err != nil {
			fail(err)
		}
		crashed := compile()
		faulty.Wrap(crashed.Workflow, crashStep, func(wrapped etl.Component) *faulty.Chaos {
			return &faulty.Chaos{Wrapped: wrapped, CrashAfterWork: true}
		})
		if _, _, err := crashed.RunResilient(context.Background(), etl.RunPolicy{Checkpoint: store}, workers); err == nil {
			fail(fmt.Errorf("R4: crash run did not crash"))
		}
		start := time.Now()
		_, rep, err := resume.RunResilient(context.Background(), etl.RunPolicy{Checkpoint: store}, workers)
		if err != nil {
			fail(err)
		}
		resumeSum += time.Since(start)
		restored = len(rep.Restored())
		rerun = len(rep.Steps) - restored
	}
	resumeAvg := resumeSum / time.Duration(reps)

	// Quarantine: poison rows in one extract, diverted under budget.
	quar := compile()
	faulty.Wrap(quar.Workflow, "extract/CORI", func(wrapped etl.Component) *faulty.Chaos {
		return &faulty.Chaos{Wrapped: wrapped, PoisonRows: 5}
	})
	var quarantined int
	quarDur, err := timeIt(reps, func() error {
		_, rep, err := quar.RunResilient(context.Background(), etl.RunPolicy{MaxQuarantinedRows: 100}, workers)
		if err == nil {
			quarantined = rep.Quarantined
		}
		return err
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("%-40s %14s %10s\n", "scenario", "run", "vs base")
	row := func(name string, dur time.Duration) {
		fmt.Printf("%-40s %14s %9.2fx\n", name, dur, float64(dur)/float64(baseDur))
	}
	row("no checkpoints (baseline)", baseDur)
	row(fmt.Sprintf("fs checkpoints (%d steps saved)", saved), ckptDur)
	row(fmt.Sprintf("resume after crash (%d steps restored)", restored), resumeAvg)
	row(fmt.Sprintf("quarantine (%d rows diverted)", quarantined), quarDur)
	fmt.Printf("work saved by resume: %d of %d steps skipped (re-executed %d)\n",
		restored, restored+rerun, rerun)
	fmt.Println()
}

// expA3: end-to-end scaling with record count.
func expA3(seed int64) {
	fmt.Println("== A3: end-to-end study scaling ==")
	fmt.Printf("%-12s %14s %14s\n", "records", "build+enter", "compile+run")
	for _, n := range []int{50, 200, 800} {
		start := time.Now()
		contribs, err := workload.BuildAll(seed, n)
		if err != nil {
			fail(err)
		}
		build := time.Since(start)
		spec, err := baseline.ReferenceSpec(contribs)
		if err != nil {
			fail(err)
		}
		start = time.Now()
		compiled, err := etl.Compile(spec)
		if err != nil {
			fail(err)
		}
		if _, err := compiled.Run(); err != nil {
			fail(err)
		}
		run := time.Since(start)
		fmt.Printf("%-12d %14s %14s\n", n, build, run)
	}
	fmt.Println()
}
