package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/relstore"
)

// journaledSpec is the fixture study with change journals on both
// contributor stacks, making it delta-capable end to end.
func journaledSpec(t *testing.T) *etl.StudySpec {
	t.Helper()
	spec := fixtureSpec(t, goodHabits)
	for _, c := range spec.Contributors {
		c.Stack.Journal = patterns.NewJournal()
	}
	return spec
}

// submitSurgical adds one new surgery record to a contributor, guaranteeing
// the next refresh has a real change to apply.
func submitSurgical(t *testing.T, c *etl.ContributorPlan, id int64) {
	t.Helper()
	if err := c.Stack.WriteValues(c.DB, c.Form, map[string]relstore.Value{
		"ProcedureID":      relstore.Int(id),
		"PacksPerDay":      relstore.Float(6),
		"Hypoxia":          relstore.Bool(true),
		"SurgeryPerformed": relstore.Bool(true),
	}); err != nil {
		t.Fatal(err)
	}
}

// post issues a POST and decodes the JSON body.
func post(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("POST %s: bad JSON %q: %v", url, raw, err)
	}
	return resp.StatusCode, body
}

// TestDeltaRefreshPartitionInvalidation drives ?mode=delta over HTTP and
// checks the partition-scoped cache contract: a delta that touched only
// clinicA invalidates clinicA-pinned and study-wide extracts but leaves
// clinicB-pinned extracts cached; an empty delta invalidates nothing at all.
func TestDeltaRefreshPartitionInvalidation(t *testing.T) {
	spec := journaledSpec(t)
	srv := NewServer(Config{Observer: obs.NewObserver()})
	if err := srv.AddStudy(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	queries := []string{"?Contributor=clinicA", "?Contributor=clinicB", ""}
	prime := func() {
		for _, q := range queries {
			get(t, ts.URL+"/studies/exsmoker/extract"+q)
		}
	}
	cacheState := func(q string) string {
		_, hdr, _ := get(t, ts.URL+"/studies/exsmoker/extract"+q)
		return hdr.Get("X-Guava-Cache")
	}
	prime()
	for _, q := range queries {
		if got := cacheState(q); got != "hit" {
			t.Fatalf("primed extract %q = %q, want hit", q, got)
		}
	}

	// A change in clinicA only: delta refresh must evict clinicA-pinned and
	// unpinned results, and must NOT evict the clinicB partition.
	submitSurgical(t, spec.Contributors[0], 100)
	code, body := post(t, ts.URL+"/studies/exsmoker/refresh?mode=delta")
	if code != http.StatusOK {
		t.Fatalf("delta refresh = %d %v", code, body)
	}
	if body["mode"] != "delta" || body["changed"] != true {
		t.Fatalf("delta refresh body = %v", body)
	}
	if gen := body["generation"].(float64); gen != 2 {
		t.Fatalf("generation after delta = %v, want 2", gen)
	}
	if got := cacheState("?Contributor=clinicB"); got != "hit" {
		t.Errorf("untouched partition after delta = %q, want hit", got)
	}
	if got := cacheState("?Contributor=clinicA"); got != "miss" {
		t.Errorf("changed partition after delta = %q, want miss", got)
	}
	if got := cacheState(""); got != "miss" {
		t.Errorf("study-wide extract after delta = %q, want miss", got)
	}

	// Empty delta: nothing recorded since. Generation must hold and every
	// re-rendered extract must still be served from cache.
	prime()
	code, body = post(t, ts.URL+"/studies/exsmoker/refresh?mode=delta")
	if code != http.StatusOK || body["changed"] != false {
		t.Fatalf("empty delta = %d %v, want changed=false", code, body)
	}
	if gen := body["generation"].(float64); gen != 2 {
		t.Fatalf("generation after empty delta = %v, want 2 (no bump)", gen)
	}
	for _, q := range queries {
		if got := cacheState(q); got != "hit" {
			t.Errorf("extract %q after empty delta = %q, want hit", q, got)
		}
	}
}

// TestDeltaRefreshModeValidation covers the HTTP edges: an unknown mode is
// a 400, and ?mode=delta against a study whose contributors keep no
// journals is a 409.
func TestDeltaRefreshModeValidation(t *testing.T) {
	_, _, ts := newTestServer(t, Config{}) // fixture without journals
	code, body := post(t, ts.URL+"/studies/exsmoker/refresh?mode=delta")
	if code != http.StatusConflict {
		t.Errorf("delta on journal-less study = %d %v, want 409", code, body)
	}
	code, body = post(t, ts.URL+"/studies/exsmoker/refresh?mode=sideways")
	if code != http.StatusBadRequest {
		t.Errorf("unknown mode = %d %v, want 400", code, body)
	}
	// The default mode still works and reports itself as full.
	code, body = post(t, ts.URL+"/studies/exsmoker/refresh")
	if code != http.StatusOK || body["mode"] != "full" {
		t.Errorf("default refresh = %d %v, want mode=full", code, body)
	}
}

// TestRefreshAutoPolicy exercises the background loop's decision ladder
// directly: clean studies are skipped without touching the warehouse, dirty
// ones go through the delta path, and losing a journal falls back to full.
func TestRefreshAutoPolicy(t *testing.T) {
	spec := journaledSpec(t)
	o := obs.NewObserver()
	srv := NewServer(Config{Observer: o})
	ctx := context.Background()
	if err := srv.AddStudy(ctx, spec); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.study("exsmoker")

	srv.refreshAuto(ctx, st, "background")
	if got := o.Metrics.Counter("serve.refresh.clean").Value(); got != 1 {
		t.Errorf("clean skips = %d, want 1", got)
	}
	if gen := testGen(st); gen != 1 {
		t.Errorf("generation after clean tick = %d, want 1", gen)
	}

	submitSurgical(t, spec.Contributors[0], 101)
	srv.refreshAuto(ctx, st, "background")
	if got := o.Metrics.Counter("serve.refresh.delta").Value(); got != 1 {
		t.Errorf("delta refreshes = %d, want 1", got)
	}
	if gen := testGen(st); gen != 2 {
		t.Errorf("generation after dirty tick = %d, want 2", gen)
	}

	// Journal removed: the study is no longer delta-capable; the loop must
	// degrade to a full refresh rather than stall.
	spec.Contributors[1].Stack.Journal = nil
	submitSurgical(t, spec.Contributors[0], 102)
	srv.refreshAuto(ctx, st, "background")
	if gen := testGen(st); gen != 3 {
		t.Errorf("generation after full fallback tick = %d, want 3", gen)
	}
}

// TestRefreshSpansNestUnderHTTPRequest: a delta refresh forced over HTTP
// runs under the request's span, with etl's refresh-delta span under it;
// the initial refresh from AddStudy and a background tick stay roots.
func TestRefreshSpansNestUnderHTTPRequest(t *testing.T) {
	spec := journaledSpec(t)
	o := obs.NewObserver()
	srv := NewServer(Config{Observer: o})
	ctx := context.Background()
	if err := srv.AddStudy(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	submitSurgical(t, spec.Contributors[0], 100)
	if code, body := post(t, ts.URL+"/studies/exsmoker/refresh?mode=delta"); code != http.StatusOK {
		t.Fatalf("delta refresh = %d %v", code, body)
	}
	st, _ := srv.study("exsmoker")
	submitSurgical(t, spec.Contributors[0], 101)
	srv.refreshAuto(ctx, st, "background")

	spans := o.Tracer.Spans()
	byID := map[int64]*obs.Span{}
	for _, s := range spans {
		byID[s.ID()] = s
	}
	parent := func(s *obs.Span) string {
		if p := byID[s.ParentID()]; p != nil {
			return p.Name()
		}
		return ""
	}
	wantParent := map[string]string{
		"serve.refresh exsmoker initial":          "",
		"serve.refresh-delta exsmoker forced":     "http POST /studies/{name}/refresh",
		"serve.refresh-delta exsmoker background": "",
	}
	seen := map[string]bool{}
	for _, s := range spans {
		switch s.Name() {
		case "serve.refresh exsmoker", "serve.refresh-delta exsmoker":
			kind, _ := s.Attr("kind")
			key := fmt.Sprintf("%s %v", s.Name(), kind)
			want, ok := wantParent[key]
			if !ok {
				t.Errorf("unexpected refresh span %q", key)
				continue
			}
			seen[key] = true
			if got := parent(s); got != want {
				t.Errorf("%s: parent = %q, want %q", key, got, want)
			}
		case "refresh-delta exsmoker":
			if got := parent(s); got != "serve.refresh-delta exsmoker" {
				t.Errorf("etl refresh-delta: parent = %q, want serve.refresh-delta exsmoker", got)
			}
		}
	}
	for key := range wantParent {
		if !seen[key] {
			t.Errorf("no %s span", key)
		}
	}
}

// TestDeltaExtractRaceUntouchedPartition is the serving-path race test for
// incremental refresh: readers hammer a clinicB-pinned extract over HTTP
// while a writer keeps mutating clinicA and delta-refreshing in flight.
// Because no delta ever touches clinicB, every pinned read after priming
// must be a cache hit with the same stable body — under -race this also
// vouches for the hook-based locking in refreshDelta.
func TestDeltaExtractRaceUntouchedPartition(t *testing.T) {
	spec := journaledSpec(t)
	srv := NewServer(Config{Observer: obs.NewObserver(), MaxInFlight: 64})
	ctx := context.Background()
	if err := srv.AddStudy(ctx, spec); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.study("exsmoker")
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	pinned := ts.URL + "/studies/exsmoker/extract?Contributor=clinicB"
	get(t, pinned) // prime the clinicB partition entry

	const (
		readers = 6
		reads   = 40
		writes  = 15
	)
	var wg sync.WaitGroup
	clinicA := spec.Contributors[0]

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := clinicA.Stack.WriteValues(clinicA.DB, clinicA.Form, map[string]relstore.Value{
				"ProcedureID":      relstore.Int(int64(200 + i)),
				"PacksPerDay":      relstore.Float(float64(i)),
				"Hypoxia":          relstore.Bool(i%2 == 0),
				"SurgeryPerformed": relstore.Bool(true),
			}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if _, err := srv.refresh(ctx, st, etl.DeltaRefresh, "stress"); err != nil {
				t.Errorf("delta refresh: %v", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				if r%2 == 0 {
					// Pinned readers: the partition never changes, so after
					// priming the cache can never go stale.
					code, hdr, body := get(t, pinned)
					if code != http.StatusOK {
						t.Errorf("pinned extract = %d", code)
						return
					}
					if hdr.Get("X-Guava-Cache") != "hit" {
						t.Errorf("pinned extract read %d = cache %q, want hit", j, hdr.Get("X-Guava-Cache"))
						return
					}
					if total := body["total"].(float64); total != 2 {
						t.Errorf("pinned extract total = %v, want 2", total)
						return
					}
				} else {
					// Unpinned readers race the refreshes for interleaving;
					// their total must be a complete snapshot, never torn.
					code, _, body := get(t, ts.URL+"/studies/exsmoker/extract?limit="+fmt.Sprint(100+j%3))
					if code != http.StatusOK {
						t.Errorf("extract = %d", code)
						return
					}
					total := int(body["total"].(float64))
					if total < 4 || total > 4+writes {
						t.Errorf("torn snapshot: total = %d", total)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if got := testPartGen(st, "clinicB"); got != 1 {
		t.Errorf("clinicB partition generation = %d, want 1 (never touched)", got)
	}
	if got := testPartGen(st, "clinicA"); got != int64(1+writes) {
		t.Errorf("clinicA partition generation = %d, want %d", got, 1+writes)
	}
	if _, hdr, _ := get(t, pinned); hdr.Get("X-Guava-Cache") != "hit" {
		t.Errorf("final pinned extract = %q, want hit", hdr.Get("X-Guava-Cache"))
	}
}
