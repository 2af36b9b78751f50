package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// A stalled request must charge its stall to every request queued behind
// it: each is timed from when it was due, not from when a connection freed.
func TestStallDelaysRequestsQueuedBehindIt(t *testing.T) {
	const stall = 100 * time.Millisecond
	var sched []arrival
	for i := 0; i < 10; i++ {
		sched = append(sched, arrival{at: time.Duration(i) * 10 * time.Millisecond, req: i})
	}
	out := driveOpenLoop(sched, 1, time.Second, func(req int) outcome {
		if req == 0 {
			time.Sleep(stall)
		}
		return outcome{status: 200}
	})
	for i, s := range out {
		if s.failed() {
			t.Fatalf("request %d failed: %+v", i, s)
		}
		// Request i was due at 10i ms and could not start before the stall
		// ended at 100 ms.
		if want := stall - sched[i].at; s.latency < want {
			t.Errorf("request %d: latency %v, want at least %v", i, s.latency, want)
		}
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	schedule := func(seed int64) []arrival {
		rng := rand.New(rand.NewSource(seed))
		return poissonSchedule(rng, 300, 2*time.Second, zipfPicker(rng, 1.2, 200))
	}
	a := schedule(42)
	if !reflect.DeepEqual(a, schedule(42)) {
		t.Fatal("seed 42 produced two different schedules")
	}
	if reflect.DeepEqual(a, schedule(7)) {
		t.Fatal("seeds 42 and 7 produced the same schedule")
	}
	if n := len(a); n < 500 || n > 700 {
		t.Errorf("%d arrivals in 2 s at 300 req/s", n)
	}
	if !reflect.DeepEqual(scanMix(study, 100, 42), scanMix(study, 100, 42)) {
		t.Fatal("seed 42 produced two different extract-scan mixes")
	}
}

func TestEvenScheduleSpacesArrivals(t *testing.T) {
	sched := evenSchedule(50, 2*time.Second, inOrder())
	if len(sched) != 100 {
		t.Fatalf("%d arrivals in 2 s at 50 req/s, want 100", len(sched))
	}
	for i, a := range sched {
		if want := time.Duration(i) * 20 * time.Millisecond; a.at != want || a.req != i {
			t.Fatalf("arrival %d = %+v, want request %d at %v", i, a, i, want)
		}
	}
}

// A failed request counts as +Inf: it ranks above every success.
func TestFailedRequestsRankLast(t *testing.T) {
	ss := []sample{
		{sent: true, latency: time.Millisecond, out: outcome{status: 200}},
		{sent: true, latency: 3 * time.Millisecond, out: outcome{status: 200}},
		{sent: true, latency: time.Microsecond, out: outcome{status: 503}},
		{sent: false},
		{sent: true, latency: 2 * time.Millisecond, out: outcome{status: 200}},
	}
	vs := latencies(ss)
	if got := quantile(vs, 0.5); got != 3 {
		t.Errorf("p50 = %v ms, want 3 ms (the slowest success)", got)
	}
	if got := quantile(vs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf", got)
	}
}
