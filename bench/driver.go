package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"guava/internal/workload"
)

// The load generator is open loop: arrivals follow a schedule fixed before
// timing starts (a seeded Poisson process, or evenly spaced), and a slow
// server does not slow the clock down. A request is timed from the moment it was due, so a stall
// charges its wait to every request queued behind it (no coordinated
// omission). A bounded set of workers stands in for the client's
// connections: a request waits for a free one exactly as it would for a free
// socket.

// arrival is one scheduled request of a timed phase.
type arrival struct {
	at  time.Duration // offset from the start of the phase
	req int           // index into the workload's request list
}

// outcome is one response as the client saw it.
type outcome struct {
	status   int   // HTTP status; 0 when err is set
	err      error // transport or decode failure
	hit      bool  // X-Guava-Cache: hit
	gen      int64 // generation stamp of an extract body
	total    int   // rows the extract matched
	returned int   // rows on the page
	changed  int   // rows a refresh added or updated
}

func (o outcome) ok() bool { return o.err == nil && o.status == 200 }

// shed reports load shedding (429/503): a failed request, but not a
// correctness failure.
func (o outcome) shed() bool { return o.status == 429 || o.status == 503 }

// sample is one timed request.
type sample struct {
	sent    bool          // false: the run ended before a connection freed up
	latency time.Duration // due → body read
	lag     time.Duration // how late the generator released it
	out     outcome
}

func (s sample) failed() bool { return !s.sent || !s.out.ok() }

// latencyMS is the sample's latency in milliseconds, +Inf when it failed: a
// refused or lost request misses every latency limit.
func (s sample) latencyMS() float64 {
	if s.failed() {
		return math.Inf(1)
	}
	return ms(s.latency)
}

// poissonSchedule draws arrivals at rps over dur; pick chooses each
// arrival's request. The same rng state yields the same schedule.
func poissonSchedule(rng *rand.Rand, rps float64, dur time.Duration, pick func() int) []arrival {
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, arrival{at: t, req: pick()})
	}
}

// evenSchedule spaces arrivals exactly 1/rps apart over dur; pick chooses
// each arrival's request. Two expensive requests then overlap only when one
// outlasts the gap, not whenever a Poisson burst stacks them, so the tail
// measures the requests themselves rather than how the schedule fell.
func evenSchedule(rps float64, dur time.Duration, pick func() int) []arrival {
	gap := time.Duration(float64(time.Second) / rps)
	var out []arrival
	for t := time.Duration(0); t < dur; t += gap {
		out = append(out, arrival{at: t, req: pick()})
	}
	return out
}

// zipfPicker draws request indexes 0..n-1 with Zipf(s) popularity, index 0
// hottest.
func zipfPicker(rng *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// inOrder replays requests 0, 1, 2, ... in schedule order.
func inOrder() func() int {
	next := -1
	return func() int { next++; return next }
}

// driveOpenLoop releases each arrival at its scheduled time to one of conns
// workers, which call do, and returns one sample per arrival in schedule
// order. Workers stop taking new requests once grace has passed after the
// last arrival; whatever is still queued then is reported unsent.
func driveOpenLoop(sched []arrival, conns int, grace time.Duration, do func(req int) outcome) []sample {
	out := make([]sample, len(sched))
	jobs := make(chan int, len(sched)) // one slot per arrival: release never blocks
	start := time.Now()
	var deadline time.Time
	if len(sched) > 0 {
		deadline = start.Add(sched[len(sched)-1].at + grace)
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if time.Now().After(deadline) {
					continue
				}
				due := start.Add(sched[i].at)
				o := do(sched[i].req)
				out[i].sent = true
				out[i].latency = time.Since(due)
				out[i].out = o
			}
		}()
	}
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].lag = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// genTracker proves reads never go back in time: a response must not carry
// a generation older than one a request for the same study/partition had
// already returned before this request was issued. Requests in flight
// together may complete out of order; that is not a violation.
type genTracker struct {
	mu    sync.Mutex
	max   map[string]int64
	stale int
}

func newGenTracker() *genTracker { return &genTracker{max: map[string]int64{}} }

// floor is the newest generation seen for key so far.
func (t *genTracker) floor(key string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.max[key]
}

// observe records a response stamped gen for a request issued at floor.
func (t *genTracker) observe(key string, floor, gen int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen < floor {
		t.stale++
	}
	if gen > t.max[key] {
		t.max[key] = gen
	}
}

func (t *genTracker) staleReads() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stale
}

// genKey is a request's staleness domain: contributor-pinned extracts are
// stamped with their partition generation, all others with the study's.
func genKey(r workload.ExtractRequest) string {
	if c := r.Params["Contributor"]; len(c) > 0 {
		return r.Study + "/" + c[0]
	}
	return r.Study
}

// scanContributors and scanSmoking are the filter values of the
// extract-scan mix.
var (
	scanContributors = []string{"CORI", "EndoSoft", "MedRecord", "Notes"}
	scanSmoking      = []string{"None", "Light", "Moderate", "Heavy"}
)

// scanMix generates n extract-scan requests: deep pages and narrow ranges
// over the whole warehouse, so most requests miss the 128-entry result
// cache and pay for select, sort and encode.
//
//	30%  unfiltered, limit=100, offset=100·U[0,200)
//	30%  Contributor=<one of 4>, limit=100, offset=100·U[0,50)
//	20%  Smoking_D3=<one of 4>, limit=100, offset=100·U[0,20)
//	20%  EntityKey in [lo, lo+50), lo ∈ U[0,5000)
//
// The shares are exact in every block of ten consecutive requests (the seed
// shuffles each block), so the mix, and with it the median, does not drift
// from seed to seed.
func scanMix(study string, n int, seed int64) []workload.ExtractRequest {
	rng := rand.New(rand.NewSource(seed))
	page := func(pages int) []string { return []string{fmt.Sprint(100 * rng.Intn(pages))} }
	block := []int{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	reqs := make([]workload.ExtractRequest, n)
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		p := map[string][]string{}
		switch block[i%len(block)] {
		case 0:
			p["limit"], p["offset"] = []string{"100"}, page(200)
		case 1:
			p["Contributor"] = []string{scanContributors[rng.Intn(len(scanContributors))]}
			p["limit"], p["offset"] = []string{"100"}, page(50)
		case 2:
			p["Smoking_D3"] = []string{scanSmoking[rng.Intn(len(scanSmoking))]}
			p["limit"], p["offset"] = []string{"100"}, page(20)
		default:
			lo := rng.Intn(5000)
			p["EntityKey.ge"] = []string{fmt.Sprint(lo)}
			p["EntityKey.lt"] = []string{fmt.Sprint(lo + 50)}
		}
		reqs[i] = workload.ExtractRequest{Study: study, Params: p}
	}
	return reqs
}

// quantile returns the q-th quantile of vs (linear interpolation between
// order statistics); +Inf entries sort last. NaN when vs is empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	switch {
	case frac == 0:
		return s[lo]
	case math.IsInf(s[lo+1], 1):
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
