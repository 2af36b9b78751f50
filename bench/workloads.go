package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"time"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
	"guava/internal/serve"
	"guava/internal/workload"
)

const (
	study          = "reference"
	batchSize      = 24               // mutations per contributor batch
	requestTimeout = 10 * time.Second // client-side limit per request
	grace          = 20 * time.Second // how long queued requests may still go out after the last arrival
	maxPage        = 10000            // serve's largest page, used by the final check
)

// deployment is one in-process `studyd -with-text`: CORI, EndoSoft and
// MedRecord plus the free-text Notes contributor, the reference study
// registered on a serve.Server with studyd's default settings and a durable
// warehouse directory, and a loopback HTTP listener in front of it.
type deployment struct {
	seed     int64
	contribs []*workload.Contributor
	spec     *etl.StudySpec
	srv      *serve.Server
	http     *httptest.Server
	observer *obs.Observer
	fs       *countingFS // traced runs only
	dir      string

	write, register time.Duration // contributor entry through the UI; AddStudy

	batches   int                 // mutation batches applied so far
	lastBatch []workload.Mutation // keys of the final delta tick, for the ReadKeys probe

	// Filled by the request helpers. Extracts run on several connections;
	// refreshes and batches only ever run on one goroutine at a time.
	misses   missTally
	persists []persistSample
}

// deploy enters the contributors, registers the study (vet, compile, first
// full refresh, first persist) and starts listening.
func deploy(ctx context.Context, cfg config) (*deployment, error) {
	d := &deployment{seed: cfg.seed}
	t0 := time.Now()
	contribs, err := workload.BuildAll(cfg.seed, cfg.n)
	if err != nil {
		return nil, err
	}
	notes, err := workload.BuildNotes(cfg.seed+3, cfg.n)
	if err != nil {
		return nil, err
	}
	d.contribs = append(contribs, notes)
	d.write = time.Since(t0)

	if d.spec, err = baseline.ReferenceSpec(d.contribs); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	if d.dir, err = os.MkdirTemp(cfg.workdir, "warehouse-"); err != nil {
		return nil, err
	}
	d.observer = &obs.Observer{Metrics: obs.NewRegistry()}
	var fsys etl.FS
	if cfg.traced {
		d.observer.Tracer = obs.NewTracer()
		d.fs = &countingFS{FS: etl.OSFS{}}
		fsys = d.fs
	}
	// studyd's flag defaults, plus -warehouse-dir.
	d.srv = serve.NewServer(serve.Config{
		MaxInFlight:     8,
		RequestTimeout:  10 * time.Second,
		PlanCacheSize:   16,
		ResultCacheSize: 128,
		WarehouseDir:    d.dir,
		FS:              fsys,
		Policy:          etl.RunPolicy{MaxAttempts: 1, Backoff: 10 * time.Millisecond},
		Observer:        d.observer,
	})
	t1 := time.Now()
	if err := d.srv.AddStudy(ctx, d.spec); err != nil {
		os.RemoveAll(d.dir)
		return nil, err
	}
	d.register = time.Since(t1)
	d.http = httptest.NewServer(d.srv.Handler())
	return d, nil
}

// close stops the listener (waiting for in-flight requests), drains the
// server and deletes the warehouse directory.
func (d *deployment) close() {
	d.http.Close()
	_ = d.srv.Shutdown(context.Background()) // nothing is in flight after http.Close
	os.RemoveAll(d.dir)
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   requestTimeout,
	}
}

// get issues one extract and decodes the page's stamp and counts. Cache
// misses are tallied for relstore.rows_sorted_per_row_returned.
func (d *deployment) get(c *http.Client, params url.Values) (outcome, []byte) {
	resp, err := c.Get(d.http.URL + "/studies/" + study + "/extract?" + params.Encode())
	if err != nil {
		return outcome{err: err}, nil
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode, hit: resp.Header.Get("X-Guava-Cache") == "hit"}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		o.err = err
		return o, nil
	}
	if o.status != http.StatusOK {
		return o, body
	}
	var page struct {
		Generation int64 `json:"generation"`
		Total      int   `json:"total"`
		Returned   int   `json:"returned"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		o.err = fmt.Errorf("decode extract: %w", err)
		return o, body
	}
	o.gen, o.total, o.returned = page.Generation, page.Total, page.Returned
	if !o.hit {
		d.misses.add(o.total, o.returned)
	}
	return o, body
}

// extract issues r and checks its generation stamp against gens.
func (d *deployment) extract(c *http.Client, r workload.ExtractRequest, gens *genTracker) outcome {
	key := genKey(r)
	floor := gens.floor(key)
	o, _ := d.get(c, url.Values(r.Params))
	if o.ok() {
		gens.observe(key, floor, o.gen)
	}
	return o
}

// refresh forces one refresh of the study (mode full or delta). In traced
// runs it records what the refresh wrote through the warehouse filesystem.
func (d *deployment) refresh(c *http.Client, mode string) outcome {
	var before fsCounts
	if d.fs != nil {
		before = d.fs.counts()
	}
	resp, err := c.Post(d.http.URL+"/studies/"+study+"/refresh?mode="+mode, "application/json", nil)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	var body struct {
		Stats struct {
			Added   int `json:"added"`
			Updated int `json:"updated"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		o.err = fmt.Errorf("decode refresh: %w", err)
	}
	o.changed = body.Stats.Added + body.Stats.Updated
	if d.fs != nil {
		d.persists = append(d.persists, persistSample{fsCounts: d.fs.counts().minus(before), changed: o.changed})
	}
	return o
}

// applyBatch enters the next seeded mutation batch through the
// contributors' pattern stacks; every change is journaled.
func (d *deployment) applyBatch() error {
	d.batches++
	d.lastBatch = workload.RandomBatch(d.contribs, d.seed*1000+int64(d.batches), batchSize)
	return workload.Apply(d.contribs, d.lastBatch)
}

// pass sends every request once, in order, on one connection: the warm-up.
func (d *deployment) pass(reqs []workload.ExtractRequest) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	gens := newGenTracker()
	for _, r := range reqs {
		if o := d.extract(c, r, gens); !o.ok() {
			return fmt.Errorf("warm-up %s: %s", r, describe(o))
		}
	}
	return nil
}

// writeLoop repeats until dur has passed: apply a mutation batch (untimed),
// wait for the next tick, then time one POST refresh round trip. Ticks fall
// every interval; when one overruns, the loop runs closed (the next refresh
// goes out as soon as the previous returns). interval 0 runs back to back.
func (d *deployment) writeLoop(c *http.Client, mode string, interval, dur time.Duration) ([]sample, error) {
	var out []sample
	start := time.Now()
	for k := 0; ; k++ {
		if err := d.applyBatch(); err != nil {
			return out, err
		}
		due := start.Add(time.Duration(k) * interval)
		if now := time.Now(); now.After(due) {
			due = now
		}
		time.Sleep(time.Until(due))
		if time.Since(start) >= dur {
			return out, nil
		}
		sent := time.Now()
		o := d.refresh(c, mode)
		out = append(out, sample{sent: true, latency: time.Since(sent), lag: sent.Sub(due), out: o})
	}
}

// phase is what a timed phase produced: the foreground operation the
// workload's end-to-end metrics describe, and background traffic.
type phase struct {
	fg, bg []sample
	stale  int
}

// workloadSpec is one named traffic mix. warm runs once per set-up, before
// timing; timed runs for dur.
type workloadSpec struct {
	name  string
	warm  func(d *deployment) error
	timed func(d *deployment, dur time.Duration) (phase, error)
}

// standardMix is the analyst request mix coribench R9 also replays.
func standardMix(seed int64) []workload.ExtractRequest {
	return workload.ExtractRequests(study, 200, seed)
}

var workloads = []workloadSpec{
	{
		// Read-only, Zipf-hot: nearly every read hits the result cache, so
		// this isolates HTTP, admission, pin and the cache lane.
		name: "extract-hot",
		warm: func(d *deployment) error { return d.pass(standardMix(d.seed)) },
		timed: func(d *deployment, dur time.Duration) (phase, error) {
			reqs := standardMix(d.seed)
			rng := rand.New(rand.NewSource(d.seed))
			sched := poissonSchedule(rng, 300, dur, zipfPicker(rng, 1.2, len(reqs)))
			return d.readPhase(reqs, sched, 2), nil
		},
	},
	{
		// Read-only, deep pages and narrow ranges: about four reads in five
		// miss the cache and pay for Table.Select, SortBy and JSON encode.
		// Arrivals are evenly spaced: Poisson bursts stack 20k-row sorts on
		// two cores, and the tail then measures how many collided, which
		// spreads by a third from run to run.
		name: "extract-scan",
		warm: func(d *deployment) error { return d.pass(scanMix(study, 200, d.seed+1)) },
		timed: func(d *deployment, dur time.Duration) (phase, error) {
			sched := evenSchedule(50, dur, inOrder())
			return d.readPhase(scanMix(study, len(sched), d.seed), sched, 2), nil
		},
	},
	{
		// Writes beside reads: a delta tick every 200 ms on one connection
		// while a reader offers 100 req/s on another. Each tick invalidates
		// cached pages, so work moved between refresh and read shows here.
		name: "refresh-churn",
		warm: func(d *deployment) error {
			if err := d.pass(standardMix(d.seed)); err != nil {
				return err
			}
			return d.tick("delta")
		},
		timed: func(d *deployment, dur time.Duration) (phase, error) {
			reqs := standardMix(d.seed)
			rng := rand.New(rand.NewSource(d.seed))
			sched := poissonSchedule(rng, 100, dur, zipfPicker(rng, 1.2, len(reqs)))
			reads := make(chan phase, 1)
			go func() { reads <- d.readPhase(reqs, sched, 1) }()
			c := newClient(1)
			defer c.CloseIdleConnections()
			ticks, err := d.writeLoop(c, "delta", 200*time.Millisecond, dur)
			p := <-reads
			p.bg, p.fg = p.fg, ticks
			return p, err
		},
	},
	{
		// Full refreshes back to back, no reads: the whole plan runs (pattern
		// reads, select, classify, union, sort, clone, merge, persist).
		name: "study-full",
		warm: func(d *deployment) error { return d.tick("full") },
		timed: func(d *deployment, dur time.Duration) (phase, error) {
			c := newClient(1)
			defer c.CloseIdleConnections()
			runs, err := d.writeLoop(c, "full", 0, dur)
			return phase{fg: runs}, err
		},
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// readPhase drives reqs on the given schedule over conns connections.
func (d *deployment) readPhase(reqs []workload.ExtractRequest, sched []arrival, conns int) phase {
	c := newClient(conns)
	defer c.CloseIdleConnections()
	gens := newGenTracker()
	fg := driveOpenLoop(sched, conns, grace, func(i int) outcome { return d.extract(c, reqs[i], gens) })
	return phase{fg: fg, stale: gens.staleReads()}
}

// tick applies one mutation batch and refreshes in the given mode, untimed.
func (d *deployment) tick(mode string) error {
	if err := d.applyBatch(); err != nil {
		return err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	if o := d.refresh(c, mode); !o.ok() {
		return fmt.Errorf("%s refresh: %s", mode, describe(o))
	}
	return nil
}

// check is the end-of-run correctness gate. It ends every workload with one
// full refresh and one delta tick, then requires the rows served through the
// API to equal a from-scratch run of the study over the final contributor
// state, byte for byte: delta ≡ full through studyd. It returns that fresh
// run, sorted as the API pages it, and the relstore work of the full refresh.
func (d *deployment) check() (*relstore.Rows, relCounts, error) {
	if err := d.applyBatch(); err != nil {
		return nil, relCounts{}, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	before := readRelCounts()
	o := d.refresh(c, "full")
	fullWork := readRelCounts().minus(before)
	if !o.ok() {
		return nil, fullWork, fmt.Errorf("full refresh: %s", describe(o))
	}
	if err := d.tick("delta"); err != nil {
		return nil, fullWork, err
	}
	served, err := d.servedRows()
	if err != nil {
		return nil, fullWork, err
	}
	want, err := freshRows(d.contribs)
	if err != nil {
		return nil, fullWork, err
	}
	if len(served) != len(want.Data) {
		return nil, fullWork, fmt.Errorf("served %d rows, a fresh run produces %d", len(served), len(want.Data))
	}
	for i, row := range want.Data {
		b, err := rowJSON(row)
		if err != nil {
			return nil, fullWork, err
		}
		if !bytes.Equal(b, served[i]) {
			return nil, fullWork, fmt.Errorf("row %d: served %s, a fresh run produces %s", i, served[i], b)
		}
	}
	return want, fullWork, nil
}

// servedRows pages through the whole study at serve's largest page size,
// requiring every page to come from one generation.
func (d *deployment) servedRows() ([]json.RawMessage, error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var rows []json.RawMessage
	gen := int64(-1)
	for offset := 0; ; offset += maxPage {
		o, body := d.get(c, url.Values{"limit": {fmt.Sprint(maxPage)}, "offset": {fmt.Sprint(offset)}})
		if !o.ok() {
			return nil, fmt.Errorf("page at offset %d: %s", offset, describe(o))
		}
		if gen >= 0 && o.gen != gen {
			return nil, fmt.Errorf("generation moved from %d to %d while paging", gen, o.gen)
		}
		gen = o.gen
		var page struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return nil, fmt.Errorf("decode page: %w", err)
		}
		rows = append(rows, page.Rows...)
		if offset+maxPage >= o.total {
			return rows, nil
		}
	}
}

// freshRows compiles the reference study anew and runs it over the
// contributors as they are now, sorted in the API's paging order.
func freshRows(contribs []*workload.Contributor) (*relstore.Rows, error) {
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		return nil, err
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		return nil, err
	}
	rows, err := compiled.Run()
	if err != nil {
		return nil, err
	}
	return relstore.SortBy(rows, rows.Schema.Names()...)
}

// rowJSON renders a row the way the extract API does.
func rowJSON(r relstore.Row) ([]byte, error) { return json.Marshal(cells(r)) }

// cells is serve's row rendering: NULL as null, every other value as its
// natural JSON scalar.
func cells(r relstore.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		switch v.Kind() {
		case relstore.KindInt:
			out[i] = v.AsInt()
		case relstore.KindFloat:
			out[i] = v.AsFloat()
		case relstore.KindString:
			out[i] = v.AsString()
		case relstore.KindBool:
			out[i] = v.AsBool()
		}
	}
	return out
}

func describe(o outcome) string {
	if o.err != nil {
		return o.err.Error()
	}
	return fmt.Sprintf("HTTP %d", o.status)
}
