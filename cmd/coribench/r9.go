package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"time"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/obs"
	"guava/internal/serve"
	"guava/internal/workload"
)

// expR9: robustness under storage faults and offered load. An in-process
// studyd serves from a crash-consistent warehouse whose filesystem runs a
// fault schedule (torn renames, short writes, dropped fsyncs, ...), while a
// churn goroutine keeps mutating contributors and forcing refreshes, which
// persist as full bases and as patch records over them. The open-loop
// driver offers Poisson arrivals at -rps for -load-duration and verifies
// the robustness contract end to end: zero hard errors, zero stale reads
// (generation stamps never go backwards), shed load bounded to the 429/503
// path with Retry-After honored, p99 under -max-p99 while goodput stays
// above -min-rps, and every scheduled fault fired.
func expR9(seed int64, n int, rps float64, dur time.Duration, faultSpec string, minRPS float64, maxP99 time.Duration) {
	fmt.Printf("== R9: fault-schedule load (rps=%.0f, duration=%s, faults=%q, %d records x 3 contributors) ==\n",
		rps, dur, faultSpec, n)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}

	dir, err := os.MkdirTemp("", "coribench-r9-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	observer := &obs.Observer{Metrics: obs.NewRegistry()}
	faults, err := faulty.ParseFaultSchedule(faultSpec)
	if err != nil {
		fail(err)
	}
	ffs := faulty.NewFS(etl.OSFS{}, faults...)
	ffs.Metrics = observer.Metrics

	srv := serve.NewServer(serve.Config{
		MaxInFlight:   64,
		MaxPerStudy:   32,
		WarehouseDir:  dir,
		FS:            ffs,
		Observer:      observer,
		BrownoutAfter: 5,
	})
	ctx := context.Background()
	if err := srv.AddStudy(ctx, spec); err != nil {
		fail(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 64}

	// Churn: contributor mutations + forced refreshes racing the reads, so
	// generations keep advancing (and keep being persisted through the
	// fault-injecting filesystem) for the whole run.
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	var refreshes, refreshFails int
	go func() {
		defer close(churnDone)
		tick := 0
		for {
			select {
			case <-churnStop:
				return
			default:
			}
			tick++
			if err := workload.Apply(contribs, workload.RandomBatch(contribs, seed+int64(tick), 4)); err != nil {
				refreshFails++
				continue
			}
			resp, err := client.Post(ts.URL+"/studies/"+spec.Name+"/refresh", "application/json", nil)
			refreshes++
			if err != nil {
				refreshFails++
			} else {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					refreshFails++
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	do := func(r workload.ExtractRequest) workload.Outcome {
		resp, err := client.Get(ts.URL + "/studies/" + r.Study + "/extract?" + url.Values(r.Params).Encode())
		if err != nil {
			return workload.Outcome{Err: err}
		}
		defer resp.Body.Close()
		out := workload.Outcome{Status: resp.StatusCode, Hit: resp.Header.Get("X-Guava-Cache") == "hit"}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			out.RetryAfter = time.Duration(ra) * time.Second
		}
		if resp.StatusCode == http.StatusOK {
			var body struct {
				Generation int64 `json:"generation"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
				out.Gen = body.Generation
			}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return out
	}

	reqs := workload.ExtractRequests(spec.Name, 200, seed)
	stats := workload.DriveOpenLoop(reqs, workload.OpenLoopOptions{
		RPS:            rps,
		Duration:       dur,
		Seed:           seed,
		MaxOutstanding: 128,
		MaxRetries:     3,
		MaxBackoff:     100 * time.Millisecond,
	}, do)
	close(churnStop)
	<-churnDone

	good := stats.Requests - stats.Errors - stats.Shed
	goodput := float64(good) / stats.Elapsed.Seconds()
	m := observer.Metrics
	fmt.Printf("%-14s %10s %10s %10s %10s %10s %10s\n",
		"", "offered", "sent", "dropped", "shed", "errors", "stale")
	fmt.Printf("%-14s %10d %10d %10d %10d %10d %10d\n",
		"requests", stats.Offered, stats.Requests, stats.Dropped, stats.Shed, stats.Errors, stats.StaleReads)
	fmt.Printf("latency p50 %s  p99 %s  hit %.1f%%  shed rate %.1f%%  retries %d\n",
		stats.P50(), stats.P99(), stats.HitRatio()*100, stats.ShedRate()*100, stats.Retries)
	fmt.Printf("churn: %d refreshes (%d failed), %d generations swapped, %d persisted (%d as records, %d persist errors)\n",
		refreshes, refreshFails,
		m.Counter("serve.snapshot.swaps").Value(), m.Counter("serve.snapshot.persist").Value(),
		m.Counter("serve.snapshot.records").Value(), m.Counter("serve.snapshot.persist.errors").Value())
	fmt.Printf("storage faults injected: %d %v\n", ffs.InjectedTotal(), ffs.Injected())
	fmt.Printf("goodput: %.0f req/s\n", goodput)

	if stats.Errors > 0 {
		fail(fmt.Errorf("R9: %d hard errors under fault schedule (must be zero)", stats.Errors))
	}
	if stats.StaleReads > 0 {
		fail(fmt.Errorf("R9: %d stale reads — a generation stamp went backwards", stats.StaleReads))
	}
	if fired := ffs.InjectedTotal(); fired < len(faults) {
		fail(fmt.Errorf("R9: only %d of %d scheduled storage faults fired — the schedule no longer matches what the store writes", fired, len(faults)))
	}
	if minRPS > 0 && goodput < minRPS {
		fail(fmt.Errorf("R9: goodput %.0f req/s below the %.0f gate", goodput, minRPS))
	}
	if maxP99 > 0 && stats.P99() > maxP99 {
		fail(fmt.Errorf("R9: p99 %s above the %s gate", stats.P99(), maxP99))
	}
	fmt.Println()
}
