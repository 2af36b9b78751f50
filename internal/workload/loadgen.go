package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// This file is the serving-side workload: a deterministic generator of
// extract queries shaped like analyst traffic against a study endpoint
// (repeated cohort pulls with a mix of equality filters, range filters,
// and paging), and the statistics the open-loop driver (openloop.go)
// collects while replaying them: the latency distribution and cache
// behavior. The generator is transport-agnostic — the driver calls back
// into whatever issues the request (an HTTP client in coribench, an
// in-process handler in tests).

// ExtractRequest is one extract query: a study name and its URL query
// parameters (multiple values per key allowed, as in a query string).
type ExtractRequest struct {
	Study  string
	Params map[string][]string
}

// String renders the request roughly as its URL path for labels and logs.
func (r ExtractRequest) String() string {
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "/studies/" + r.Study + "/extract"
	sep := "?"
	for _, k := range keys {
		for _, v := range r.Params[k] {
			s += sep + k + "=" + v
			sep = "&"
		}
	}
	return s
}

// ExtractRequests generates n deterministic extract queries against the
// reference study's columns. The mix repeats popular shapes often enough
// that a result cache can prove itself while still touching filters,
// ranges, and paging:
//
//	~40% hot full-page pulls (identical, maximally cacheable)
//	~30% equality filters over Contributor / Smoking_D3 / Hypoxia_D1
//	~20% EntityKey range scans
//	~10% paging through the unfiltered extract
func ExtractRequests(study string, n int, seed int64) []ExtractRequest {
	rng := rand.New(rand.NewSource(seed))
	smoking := []string{"None", "Light", "Moderate", "Heavy"}
	contributors := []string{"CORI", "EndoSoft", "MedRecord"}
	reqs := make([]ExtractRequest, 0, n)
	for i := 0; i < n; i++ {
		params := map[string][]string{}
		switch roll := rng.Float64(); {
		case roll < 0.40:
			params["limit"] = []string{"100"}
		case roll < 0.55:
			params["Contributor"] = []string{contributors[rng.Intn(len(contributors))]}
		case roll < 0.65:
			params["Smoking_D3"] = []string{smoking[rng.Intn(len(smoking))]}
		case roll < 0.70:
			params["Hypoxia_D1"] = []string{fmt.Sprint(rng.Intn(2) == 0)}
		case roll < 0.90:
			lo := rng.Intn(150)
			params["EntityKey.ge"] = []string{fmt.Sprint(lo)}
			params["EntityKey.lt"] = []string{fmt.Sprint(lo + 25*(1+rng.Intn(3)))}
		default:
			params["limit"] = []string{"20"}
			params["offset"] = []string{fmt.Sprint(20 * rng.Intn(5))}
		}
		reqs = append(reqs, ExtractRequest{Study: study, Params: params})
	}
	return reqs
}

// LoadStats aggregates one DriveOpenLoop run: it separates shed load
// (429/503, retryable by design) from hard errors and tracks the
// offered-vs-completed gap.
type LoadStats struct {
	Requests   int // requests actually sent (and completed)
	Hits       int // successful responses served from cache
	Errors     int // hard failures: transport errors and non-shed 4xx/5xx
	Offered    int // arrivals the Poisson clock generated (sent + dropped)
	Shed       int // requests still 429/503 after the retry budget
	Retries    int // extra attempts spent honoring Retry-After backoff
	StaleReads int // responses stamped older than one already observed
	Dropped    int // arrivals past MaxOutstanding, never sent
	Elapsed    time.Duration
	latencies  []time.Duration // sorted ascending
}

// HitRatio is the fraction of successful requests served from cache.
func (s *LoadStats) HitRatio() float64 {
	if ok := s.Requests - s.Errors - s.Shed; ok > 0 {
		return float64(s.Hits) / float64(ok)
	}
	return 0
}

// ShedRate is the fraction of completed requests the server shed.
func (s *LoadStats) ShedRate() float64 {
	if s.Requests > 0 {
		return float64(s.Shed) / float64(s.Requests)
	}
	return 0
}

// Quantile returns the q-th latency quantile (q in [0,1]) across all
// requests, zero when nothing was measured.
func (s *LoadStats) Quantile(q float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(s.latencies)-1))
	return s.latencies[i]
}

// P50 and P99 are the conventional latency summary points.
func (s *LoadStats) P50() time.Duration { return s.Quantile(0.50) }
func (s *LoadStats) P99() time.Duration { return s.Quantile(0.99) }

// Throughput is successful requests per second over the driven wall time.
func (s *LoadStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Requests-s.Errors) / s.Elapsed.Seconds()
}
