package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/serve"
	"guava/internal/workload"
)

// r5RPS is the offered arrival rate of each R5 pass: far below what the
// serving path sustains, so latencies measure service, not queueing.
const r5RPS = 200

// expR5: serving-path latency. The baseline is what an analyst pays today
// for every repeated extract — compile the study and run it from the
// contributor databases, per request. The serving path compiles once,
// refreshes the warehouse once, and answers from the predicate-pushdown +
// result-cache read path. Two open-loop passes offer the same seeded
// traffic — nreqs Poisson arrivals at r5RPS, Zipf-popular over the mix,
// at most `clients` in flight — cold (cache filling) and warm (cache
// proven). Arrivals never wait for responses, so a slow response cannot
// hide the requests queued behind it (no coordinated omission).
func expR5(seed int64, n, clients, nreqs int, minSpeedup float64) {
	fmt.Printf("== R5: serving extracts under %d clients (%d records x 3 contributors, %d requests/pass) ==\n",
		clients, n, nreqs)
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		fail(err)
	}
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		fail(err)
	}

	// Baseline: compile-and-run-per-request.
	const baseReps = 11
	baseLats := make([]time.Duration, 0, baseReps)
	for i := 0; i < baseReps; i++ {
		t0 := time.Now()
		compiled, err := etl.Compile(spec)
		if err != nil {
			fail(err)
		}
		if _, err := compiled.Run(); err != nil {
			fail(err)
		}
		baseLats = append(baseLats, time.Since(t0))
	}
	sort.Slice(baseLats, func(i, j int) bool { return baseLats[i] < baseLats[j] })
	baseP50 := baseLats[len(baseLats)/2]

	// Serving path: studyd's server over the same study, driven over HTTP.
	srv := serve.NewServer(serve.Config{
		MaxInFlight: clients * 2,
		Observer:    &obs.Observer{Metrics: obs.NewRegistry()},
	})
	if err := srv.AddStudy(context.Background(), spec); err != nil {
		fail(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: clients}

	do := func(r workload.ExtractRequest) workload.Outcome {
		resp, err := client.Get(ts.URL + "/studies/" + r.Study + "/extract?" + url.Values(r.Params).Encode())
		if err != nil {
			return workload.Outcome{Err: err}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return workload.Outcome{Status: resp.StatusCode, Hit: resp.Header.Get("X-Guava-Cache") == "hit"}
	}

	reqs := workload.ExtractRequests(spec.Name, nreqs, seed)
	pass := workload.OpenLoopOptions{
		RPS:            r5RPS,
		Duration:       time.Duration(nreqs) * time.Second / r5RPS,
		Seed:           seed,
		MaxOutstanding: clients,
	}
	cold := workload.DriveOpenLoop(reqs, pass, do)
	warm := workload.DriveOpenLoop(reqs, pass, do)

	fmt.Printf("%-36s %10s %10s %8s %8s %12s\n", "path", "p50", "p99", "hit%", "errors", "req/s")
	fmt.Printf("%-36s %10s %10s %8s %8s %12s\n", "compile-and-run-per-request", baseP50,
		baseLats[len(baseLats)-1], "-", "-", "-")
	for _, pass := range []struct {
		name  string
		stats *workload.LoadStats
	}{{"studyd cold (cache filling)", cold}, {"studyd warm (cache proven)", warm}} {
		fmt.Printf("%-36s %10s %10s %7.1f%% %8d %12.0f\n", pass.name,
			pass.stats.P50(), pass.stats.P99(), pass.stats.HitRatio()*100, pass.stats.Errors,
			pass.stats.Throughput())
	}
	if cold.Errors+cold.Shed > 0 || warm.Errors+warm.Shed > 0 {
		fail(fmt.Errorf("R5: load run saw errors (cold %d, warm %d) or shed load (cold %d, warm %d)",
			cold.Errors, warm.Errors, cold.Shed, warm.Shed))
	}
	if warm.HitRatio() <= cold.HitRatio() {
		fail(fmt.Errorf("R5: warm pass hit ratio %.2f did not improve on cold %.2f",
			warm.HitRatio(), cold.HitRatio()))
	}

	speedup := float64(baseP50) / float64(warm.P50())
	fmt.Printf("warm-cache extract p50 speedup vs compile-and-run-per-request: %.1fx\n", speedup)
	if minSpeedup > 0 && speedup < minSpeedup {
		fail(fmt.Errorf("R5: warm-cache speedup %.1fx below the %.1fx gate", speedup, minSpeedup))
	}
	fmt.Println()
}
