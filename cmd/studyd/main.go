// Command studyd is the study-serving daemon: it loads the synthetic
// workload, vets and compiles the reference study (plus a smoking-only
// "cohort" variant) exactly once into the serve plan cache, refreshes the
// warehouse in the background on -refresh-interval, and serves the JSON
// extract API until SIGTERM/SIGINT, at which point it drains: background
// refresh stops, in-flight requests finish, and the process prints
// "studyd: drained cleanly" before exiting 0.
//
// The API (see internal/serve):
//
//	curl localhost:8091/healthz          # legacy combined probe
//	curl localhost:8091/healthz/live     # liveness: 200 while the process is up
//	curl localhost:8091/healthz/ready    # readiness: 503 while draining or warming
//	curl localhost:8091/studies
//	curl 'localhost:8091/studies/reference/extract?Smoking_D3=Heavy&limit=10'
//	curl -X POST localhost:8091/studies/reference/refresh
//	curl localhost:8091/metrics
//
// Usage:
//
//	studyd [-addr :8091] [-seed 42] [-n 200]
//	       [-refresh-interval 0] [-max-inflight 8] [-max-per-study 0]
//	       [-request-timeout 10s] [-plan-cache 16] [-result-cache 128]
//	       [-retries 0] [-step-timeout 0] [-continue]
//	       [-warehouse-dir /var/lib/studyd] [-fs-faults torn_rename:MANIFEST@0]
//	       [-trace-out spans.jsonl] [-with-text]
//
// With -warehouse-dir, every data-changing refresh is persisted as an
// immutable generation: a full base (segment file + checksummed MANIFEST)
// or, while the previous generation is durable, a small checksummed patch
// record over its base; a restart — clean or SIGKILL — recovers the newest
// complete generation, replaying its records, and serves it without
// re-running any study plan, discarding torn ones. -fs-faults runs
// the warehouse writes through the storage fault injector so crash drills
// can tear them on purpose.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/obs"
	"guava/internal/serve"
	"guava/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8091", "listen address")
	seed := flag.Int64("seed", 42, "workload seed")
	n := flag.Int("n", 200, "records per contributor")
	refreshEvery := flag.Duration("refresh-interval", 0, "background warehouse refresh period (0 = on demand only)")
	maxInFlight := flag.Int("max-inflight", 8, "concurrent extracts admitted before 429")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline")
	planCache := flag.Int("plan-cache", 16, "compiled plans kept resident")
	resultCache := flag.Int("result-cache", 128, "rendered extracts kept resident")
	retries := flag.Int("retries", 0, "refresh retries per step beyond the first attempt")
	stepTimeout := flag.Duration("step-timeout", 0, "refresh deadline per step attempt (0 = none)")
	contOnErr := flag.Bool("continue", false, "refresh continues past failed contributors (graceful degradation)")
	traceOut := flag.String("trace-out", "", "append request/refresh spans as JSON lines to this file")
	badStudy := flag.Bool("bad-study", false, "additionally register a \"badplan\" study (lazily) whose compiled plan is contradictory; its first extract or refresh is rejected with 422 by the plan-admission gate")
	warehouseDir := flag.String("warehouse-dir", "", "persist study generations under this directory and recover the newest complete one at startup (empty = memory only)")
	fsFaults := flag.String("fs-faults", "", "inject storage faults into warehouse writes, kind[:pathsub][@after][~delay],... e.g. torn_rename:MANIFEST@0")
	maxPerStudy := flag.Int("max-per-study", 0, "concurrent cache-miss extracts admitted per study before 429 (0 = no per-study bound)")
	withText := flag.Bool("with-text", false, "add the free-text Notes contributor so the served studies mix text and database sources")
	flag.Parse()

	observer := &obs.Observer{Metrics: obs.NewRegistry()}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		traceFile = f
		observer.Tracer = obs.NewTracer()
	}
	// Periodically drain spans to disk so the daemon's trace buffer stays
	// bounded however long it runs.
	drainSpans := func() {
		if traceFile == nil {
			return
		}
		if spans := observer.Tracer.Drain(); len(spans) > 0 {
			if err := obs.WriteSpans(traceFile, spans); err != nil {
				fmt.Fprintf(os.Stderr, "studyd: trace export: %v\n", err)
			}
		}
	}

	contribs, err := workload.BuildAll(*seed, *n)
	if err != nil {
		fail(err)
	}
	if *withText {
		// The Notes contributor dictates the same seeded ground truth into
		// progress-note documents; its extraction runs inside every study
		// refresh, so the served extract mixes text- and database-sourced rows.
		notes, err := workload.BuildNotes(*seed+3, *n)
		if err != nil {
			fail(err)
		}
		contribs = append(contribs, notes)
	}
	reference, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	cohort, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}
	// The cohort study serves the smoking column alone — a second plan in
	// the cache over the same contributor databases.
	cohort.Name = "cohort"
	cohort.Columns = cohort.Columns[:1]
	for _, c := range cohort.Contributors {
		delete(c.Classifiers, "Hypoxia_D1")
	}

	// The warehouse filesystem: real, or wrapped in the fault injector so CI
	// can tear generation writes and watch recovery cope.
	var warehouseFS etl.FS
	if *fsFaults != "" {
		faults, err := faulty.ParseFaultSchedule(*fsFaults)
		if err != nil {
			fail(err)
		}
		ffs := faulty.NewFS(etl.OSFS{}, faults...)
		ffs.Metrics = observer.Metrics
		warehouseFS = ffs
	}

	srv := serve.NewServer(serve.Config{
		RefreshInterval: *refreshEvery,
		MaxInFlight:     *maxInFlight,
		MaxPerStudy:     *maxPerStudy,
		RequestTimeout:  *reqTimeout,
		PlanCacheSize:   *planCache,
		ResultCacheSize: *resultCache,
		WarehouseDir:    *warehouseDir,
		FS:              warehouseFS,
		Logf: func(format string, args ...any) {
			fmt.Printf("studyd: "+format+"\n", args...)
		},
		Policy: etl.RunPolicy{
			MaxAttempts:     *retries + 1,
			Backoff:         10 * time.Millisecond,
			StepTimeout:     *stepTimeout,
			ContinueOnError: *contOnErr,
		},
		Observer: observer,
	})
	ctx := context.Background()
	for _, spec := range []*etl.StudySpec{reference, cohort} {
		if err := srv.AddStudy(ctx, spec); err != nil {
			fail(err)
		}
		fmt.Printf("studyd: study %q ready\n", spec.Name)
	}
	if *badStudy {
		// Artifacts vet clean (the contradiction only exists post-compile),
		// so lazy registration succeeds; the plan-admission gate rejects the
		// study at its first use, and every request answers 422 with the
		// GV21x report — the r8-smoke CI job drives exactly this.
		bad, err := baseline.ReferenceSpec(contribs)
		if err != nil {
			fail(err)
		}
		bad.Name = "badplan"
		bad.Contributors = bad.Contributors[:1]
		bad.Contributors[0].Condition = "PacksPerDay > 5 AND PacksPerDay < 2"
		if err := srv.AddStudyLazy(bad); err != nil {
			fail(err)
		}
		fmt.Printf("studyd: study %q registered lazily (plan will be rejected at first use)\n", bad.Name)
	}

	if err := srv.Start(*addr); err != nil {
		fail(err)
	}
	fmt.Printf("studyd: listening on %s (refresh interval %s)\n", srv.Addr(), *refreshEvery)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			drainSpans()
		case sig := <-sigs:
			fmt.Printf("studyd: %s received, draining\n", sig)
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			err := srv.Shutdown(shutdownCtx)
			cancel()
			drainSpans()
			if traceFile != nil {
				traceFile.Close()
			}
			if err != nil {
				fail(fmt.Errorf("drain: %w", err))
			}
			fmt.Println("studyd: drained cleanly")
			return
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "studyd: %v\n", err)
	os.Exit(1)
}
