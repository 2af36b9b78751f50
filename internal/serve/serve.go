// Package serve is the study-serving subsystem: a long-running HTTP daemon
// over the warehouse. The paper's workflow is not one-shot — contributor
// data "is periodically sent for inclusion in the CORI warehouse" and
// analysts then pull study extracts repeatedly — so serve keeps each
// study's compiled plan in an LRU cache (compiled exactly once per
// residency), refreshes the warehouse in the background on a configurable
// interval, and answers extract queries from a generation-stamped result
// cache that is invalidated only when a refresh actually changes data.
//
// The API is zero-dependency net/http + encoding/json:
//
//	GET  /healthz                  liveness + drain state
//	GET  /metrics                  internal/obs registry, JSONL
//	GET  /studies                  every served study with refresh stats
//	GET  /studies/{name}/extract   filtered, paginated rows (see extract.go)
//	POST /studies/{name}/refresh   force a refresh now
//
// Robustness posture matches the batch path: extract admission is bounded
// by a semaphore (429 when saturated), every request carries a deadline and
// a span, refreshes run under an etl.RunPolicy, and Shutdown drains —
// refresh loops stop first, then in-flight requests complete.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/plancheck"
	"guava/internal/relstore"
	"guava/internal/vet"
)

// Config tunes a Server. The zero value is usable: sensible cache sizes and
// admission limits, no background refresh (interval 0 disables the loops),
// metrics into obs.Default, no tracing.
type Config struct {
	// RefreshInterval is the background refresh period per study;
	// <= 0 disables the loops (refresh still happens on demand).
	RefreshInterval time.Duration
	// MaxInFlight bounds concurrently admitted extracts (default 8).
	MaxInFlight int
	// RequestTimeout is the per-request deadline (default 10s).
	RequestTimeout time.Duration
	// PlanCacheSize bounds resident compiled plans (default 16).
	PlanCacheSize int
	// ResultCacheSize bounds cached rendered extracts (default 128).
	ResultCacheSize int
	// Policy governs refresh execution (retries, timeouts, quarantine).
	Policy etl.RunPolicy
	// Observer receives spans and metrics. nil routes metrics to
	// obs.Default and records no spans.
	Observer *obs.Observer
	// WarehouseDir enables the crash-consistent generation store: each
	// study persists its latest complete generation under <dir>/<study>/
	// — a base gen-<B> plus the patch records over it — and recovers it
	// at registration after a restart. "" keeps everything in memory.
	WarehouseDir string
	// FS is the filesystem the generation store writes through; nil uses
	// the real one. Tests and the R9 harness thread a faulty.FS here.
	FS etl.FS
	// MaxPerStudy bounds concurrently admitted cache-miss extracts per
	// study (0 disables the per-study admission tier).
	MaxPerStudy int
	// BrownoutAfter sheds cache-miss extracts for a study once this many
	// consecutive refreshes of it have failed, keeping cached reads alive
	// while the backend recovers (0 uses 3; < 0 disables brownout).
	BrownoutAfter int
	// Logf receives operational log lines (recovery, torn-generation
	// discards). nil is silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 16
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 128
	}
	if c.BrownoutAfter == 0 {
		c.BrownoutAfter = 3
	}
	return c
}

// logf routes operational log lines to the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// servedStudy is one study's serving state. All data an extract touches —
// table, cursors, partition generations, merge stats — lives in one
// immutable generation object behind an atomic pointer (see generation.go):
// readers pin it lock-free, refreshes build the next generation
// side-by-side and swap. What remains on the study itself is either fixed
// at registration or a single atomic.
type servedStudy struct {
	name      string
	spec      *etl.StudySpec
	schema    *relstore.Schema
	tableName string
	store     *genStore  // on-disk generation store; nil when disabled
	pinGauge  *obs.Gauge // serve.snapshot.pins

	// cur is the current generation; nil until the first successful
	// refresh (or recovery) publishes one.
	cur atomic.Pointer[generation]

	// ready flips once a generation is published. Studies registered
	// through AddStudyLazy start unready: their first extract or refresh
	// triggers compilation (and the plan-admission gate) on demand.
	ready atomic.Bool

	// slots bounds concurrently admitted cache-miss extracts of this study
	// (nil disables the tier): one slow study saturating the global
	// semaphore must not starve the others.
	slots chan struct{}

	refreshMu sync.Mutex // serializes builders of the next generation

	// retiredGens are the retired generations whose directory may still be
	// on disk (see collect).
	gcMu        sync.Mutex
	retiredGens []*generation

	refreshes   atomic.Int64 // refresh attempts, success or failure
	consecFails atomic.Int64 // consecutive failed refreshes (brownout input)
	lastErr     atomic.Value // string: last refresh error, "" after a success
	lastRefresh atomic.Value // time.Time of the last refresh attempt
}

// lastErrString returns the last refresh error ("" when the latest
// refresh succeeded or none ran yet).
func (st *servedStudy) lastErrString() string {
	if e, ok := st.lastErr.Load().(string); ok {
		return e
	}
	return ""
}

// noteRefresh records the outcome of one refresh attempt.
func (st *servedStudy) noteRefresh(err error) {
	st.refreshes.Add(1)
	st.lastRefresh.Store(time.Now())
	if err != nil {
		st.lastErr.Store(err.Error())
		st.consecFails.Add(1)
	} else {
		st.lastErr.Store("")
		st.consecFails.Store(0)
	}
}

// Server hosts a set of vetted studies behind the extract API.
type Server struct {
	cfg     Config
	plans   *planCache
	results *resultCache
	slots   chan struct{}
	start   time.Time

	mu      sync.RWMutex
	studies map[string]*servedStudy
	loops   bool // background refresh loops running

	loopStop chan struct{}
	loopWG   sync.WaitGroup

	httpSrv  *http.Server
	addr     atomic.Value // net.Addr
	draining atomic.Bool
}

// NewServer builds a Server from cfg. Studies are added with AddStudy;
// Start opens the listener and (when configured) the refresh loops.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxInFlight),
		start:   time.Now(),
		studies: make(map[string]*servedStudy),
	}
	s.plans = newPlanCache(cfg.PlanCacheSize, s.metrics)
	s.results = newResultCache(cfg.ResultCacheSize)
	return s
}

// metrics returns the registry serve publishes into.
func (s *Server) metrics() *obs.Registry {
	if s.cfg.Observer != nil && s.cfg.Observer.Metrics != nil {
		return s.cfg.Observer.Metrics
	}
	return obs.Default
}

// observe threads the server's observer into ctx so spans and metrics from
// the etl layer land in the same place as serve's own. A ctx that already
// carries the observer comes back unchanged, keeping its current span: a
// refresh forced over HTTP nests under the request's span.
func (s *Server) observe(ctx context.Context) context.Context {
	if s.cfg.Observer != nil && obs.ObserverFrom(ctx) != s.cfg.Observer {
		return obs.WithObserver(ctx, s.cfg.Observer)
	}
	return ctx
}

// AddStudy vets spec, compiles it through the plan cache (where the
// plan-level analyzer gates admission), and runs the initial warehouse
// refresh so the study is queryable the moment it is listed. A spec with vet
// errors or a GV21x-rejected plan is refused — the daemon serves only
// studies that pass the same static gates as the batch path. When the
// generation store holds a recovered generation for the study, it is served
// immediately and the initial refresh is skipped — a restarted daemon
// answers from the last complete pre-crash snapshot before any contributor
// is re-contacted.
func (s *Server) AddStudy(ctx context.Context, spec *etl.StudySpec) error {
	st, err := s.register(spec)
	if err != nil {
		return err
	}
	if st.cur.Load() != nil {
		return nil // recovered from disk; already serving
	}
	if _, err := s.refresh(ctx, st, etl.FullRefresh, "initial"); err != nil {
		s.mu.Lock()
		delete(s.studies, spec.Name)
		s.mu.Unlock()
		return fmt.Errorf("serve: initial refresh of %q: %w", spec.Name, err)
	}
	return nil
}

// AddStudyLazy registers spec without compiling or refreshing it: the study
// is listed immediately, and its first extract or refresh request compiles
// the plan through the cache — where a GV21x-rejected plan surfaces as HTTP
// 422 instead of a boot failure. Artifact-level vetting still runs eagerly;
// only the plan-level work is deferred.
func (s *Server) AddStudyLazy(spec *etl.StudySpec) error {
	_, err := s.register(spec)
	return err
}

// register performs the shared AddStudy/AddStudyLazy work: artifact vetting,
// schema derivation, and slotting the study into the serving map (plus its
// background refresh loop when the loops already run).
func (s *Server) register(spec *etl.StudySpec) (*servedStudy, error) {
	if rep := vet.Study(spec, nil, nil); rep.HasErrors() {
		return nil, fmt.Errorf("serve: study %q failed vetting:\n%s", spec.Name, rep.Text())
	}
	schema, err := spec.OutputSchema()
	if err != nil {
		return nil, err
	}
	st := &servedStudy{
		name:   spec.Name,
		spec:   spec,
		schema: schema,
		// The compiler's output name is deterministic, so lazy registration
		// can derive it without compiling.
		tableName: "Study_" + spec.Name,
		pinGauge:  s.metrics().Gauge("serve.snapshot.pins"),
	}
	if s.cfg.MaxPerStudy > 0 {
		st.slots = make(chan struct{}, s.cfg.MaxPerStudy)
	}
	if s.cfg.WarehouseDir != "" {
		st.store = newGenStore(s.cfg.FS, filepath.Join(s.cfg.WarehouseDir, spec.Name), s.metrics, s.cfg.Logf)
		s.recoverStudy(st)
	}

	s.mu.Lock()
	if _, dup := s.studies[spec.Name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: study %q already registered", spec.Name)
	}
	s.studies[spec.Name] = st
	startLoop := s.loops
	stop := s.loopStop
	s.mu.Unlock()

	if startLoop {
		s.loopWG.Add(1)
		go s.refreshLoop(st, stop)
	}
	return st, nil
}

// recoverStudy loads the newest complete generation from the study's store
// — a base with its records replayed — and publishes it. A store whose
// recovered schema no longer matches the spec is wiped — stale shapes are
// never served.
func (s *Server) recoverStudy(st *servedStudy) {
	rec, err := st.store.recover(st.tableName)
	if err != nil || rec == nil {
		return
	}
	if !rec.table.Schema().Equal(st.schema) {
		s.logf("serve: study %q recovered generation %d has a stale schema; discarding store", st.name, rec.state.Gen)
		st.store.discardAll()
		return
	}
	g := newGeneration(st, rec.table)
	g.num, g.stats, g.onDisk = rec.state.Gen, rec.state.Stats, rec.disk
	g.digest = rec.digest
	if rec.state.Cursors != nil {
		g.cursors = etl.NewDeltaCursors()
		for k, v := range rec.state.Cursors {
			g.cursors.Set(k, v)
		}
	}
	if rec.state.PartGens != nil {
		g.partGens = rec.state.PartGens
	}
	st.refreshes.Store(rec.state.Refreshes)
	s.publish(st, g)
	s.logf("serve: study %q recovered generation %d (%d rows)", st.name, g.num, g.table.Len())
}

// ensureReady lazily brings an AddStudyLazy study online: the first request
// pays for compilation (running the plan-admission gate) and the initial
// refresh. Already-ready studies return immediately.
func (s *Server) ensureReady(ctx context.Context, st *servedStudy) error {
	if st.ready.Load() {
		return nil
	}
	_, err := s.refresh(ctx, st, etl.FullRefresh, "initial")
	return err
}

// study looks up a served study by name.
func (s *Server) study(name string) (*servedStudy, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.studies[name]
	return st, ok
}

// StudyNames returns the served study names, sorted.
func (s *Server) StudyNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.studies))
	for n := range s.studies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler returns the API routes; usable directly under httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("GET /healthz", s.handleHealthz))
	mux.Handle("GET /healthz/live", s.instrument("GET /healthz/live", s.handleHealthzLive))
	mux.Handle("GET /healthz/ready", s.instrument("GET /healthz/ready", s.handleHealthzReady))
	mux.Handle("GET /metrics", s.instrument("GET /metrics", s.handleMetrics))
	mux.Handle("GET /studies", s.instrument("GET /studies", s.handleStudies))
	mux.Handle("GET /studies/{name}/extract", s.instrument("GET /studies/{name}/extract", s.handleExtract))
	mux.Handle("POST /studies/{name}/refresh", s.instrument("POST /studies/{name}/refresh", s.handleRefresh))
	return mux
}

// Start listens on addr ("host:port", ":0" for ephemeral), serves the API
// in the background, and starts the refresh loops when RefreshInterval is
// positive. The bound address is available from Addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.addr.Store(ln.Addr())
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("serve: %v\n", err)
		}
	}()
	s.StartRefreshLoops()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if a, ok := s.addr.Load().(net.Addr); ok {
		return a.String()
	}
	return ""
}

// StartRefreshLoops launches one background refresh goroutine per served
// study. A no-op when RefreshInterval <= 0 or the loops already run.
func (s *Server) StartRefreshLoops() {
	if s.cfg.RefreshInterval <= 0 {
		return
	}
	s.mu.Lock()
	if s.loops {
		s.mu.Unlock()
		return
	}
	s.loops = true
	s.loopStop = make(chan struct{})
	stop := s.loopStop
	studies := make([]*servedStudy, 0, len(s.studies))
	for _, st := range s.studies {
		studies = append(studies, st)
	}
	s.mu.Unlock()
	for _, st := range studies {
		s.loopWG.Add(1)
		go s.refreshLoop(st, stop)
	}
}

// stopRefreshLoops signals the loops and waits for them to exit.
func (s *Server) stopRefreshLoops() {
	s.mu.Lock()
	running := s.loops
	s.loops = false
	stop := s.loopStop
	s.mu.Unlock()
	if !running {
		return
	}
	close(stop)
	s.loopWG.Wait()
}

// Shutdown drains the server: mark draining (healthz flips to 503 so load
// balancers stop routing), stop the refresh loops, then let in-flight
// requests finish under ctx's deadline. Safe to call without Start (tests
// that mount Handler directly still get loop teardown).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopRefreshLoops()
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter captures the response code for spans and error counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps a handler with the per-request span, deadline, and the
// serve.requests / serve.errors counters.
func (s *Server) instrument(pattern string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.metrics()
		m.Counter("serve.requests").Inc()
		ctx, cancel := context.WithTimeout(s.observe(r.Context()), s.cfg.RequestTimeout)
		defer cancel()
		ctx, span := obs.StartSpan(ctx, "http "+pattern, obs.String("path", r.URL.Path))
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		code := sw.status()
		span.SetAttr(obs.Int("status", int64(code)))
		if code >= 500 {
			m.Counter("serve.errors").Inc()
			span.EndErr(fmt.Errorf("HTTP %d", code))
		} else {
			span.End()
		}
	})
}

// writeJSON renders v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// httpError renders a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleHealthz is the legacy combined probe: 503 once draining so load
// balancers that only know one endpoint stop routing. New deployments
// should probe /healthz/live and /healthz/ready separately.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.mu.RLock()
	n := len(s.studies)
	s.mu.RUnlock()
	writeJSON(w, code, map[string]any{
		"status":   status,
		"studies":  n,
		"inflight": len(s.slots),
		"uptimeMs": time.Since(s.start).Milliseconds(),
	})
}

// handleHealthzLive answers pure liveness: the process is up and able to
// serve HTTP. It stays 200 while draining or recovering — a daemon
// finishing in-flight work is not dead, and reporting it dead gets it
// killed mid-drain.
func (s *Server) handleHealthzLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "alive",
		"uptimeMs": time.Since(s.start).Milliseconds(),
	})
}

// handleHealthzReady answers routability: 503 while draining or while any
// registered study has no published generation yet (initial refresh or
// recovery in progress), 200 once every study can serve an extract.
func (s *Server) handleHealthzReady(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	unready := 0
	s.mu.RLock()
	n := len(s.studies)
	for _, st := range s.studies {
		if !st.ready.Load() {
			unready++
		}
	}
	s.mu.RUnlock()
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case unready > 0:
		status, code = "not-ready", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"studies": n,
		"unready": unready,
	})
}

// handleMetrics exports the registry as JSONL, one sample per line — the
// same wire format obs.WriteMetrics uses on disk.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteMetrics(w, s.metrics())
}

// studyInfo is one /studies listing entry.
type studyInfo struct {
	Name        string       `json:"name"`
	Generation  int64        `json:"generation"`
	Rows        int          `json:"rows"`
	Columns     []columnInfo `json:"columns"`
	Refreshes   int64        `json:"refreshes"`
	LastRefresh string       `json:"lastRefresh,omitempty"`
	LastStats   *statsJSON   `json:"lastStats,omitempty"`
	LastError   string       `json:"lastError,omitempty"`
}

type columnInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type statsJSON struct {
	Total     int `json:"total"`
	Added     int `json:"added"`
	Updated   int `json:"updated"`
	Unchanged int `json:"unchanged"`
}

func columnInfos(schema *relstore.Schema) []columnInfo {
	cols := make([]columnInfo, 0, len(schema.Columns))
	for _, c := range schema.Columns {
		cols = append(cols, columnInfo{Name: c.Name, Kind: c.Type.String()})
	}
	return cols
}

// handleStudies lists every served study with its serving state. Rows,
// generation, and merge stats are read from the same pinned generation an
// extract would use, so the listing can never show a half-updated view of
// a refresh in flight.
func (s *Server) handleStudies(w http.ResponseWriter, r *http.Request) {
	var infos []studyInfo
	for _, name := range s.StudyNames() {
		st, ok := s.study(name)
		if !ok {
			continue
		}
		info := studyInfo{
			Name:    st.name,
			Columns: columnInfos(st.schema),
		}
		if g := st.pin(); g != nil {
			info.Generation = g.num
			info.Rows = g.table.Len()
			info.LastStats = &statsJSON{Total: g.stats.Total, Added: g.stats.Added, Updated: g.stats.Updated, Unchanged: g.stats.Unchanged}
			g.unpin()
		}
		info.Refreshes = st.refreshes.Load()
		if t, ok := st.lastRefresh.Load().(time.Time); ok && !t.IsZero() {
			info.LastRefresh = t.UTC().Format(time.RFC3339)
		}
		info.LastError = st.lastErrString()
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"studies": infos})
}

// handleExtract serves filtered, paginated study rows from a pinned
// generation — never blocking on a refresh, never observing a
// half-applied merge. Admission is tiered:
//
//  1. cached extracts are a priority lane: a hit is served without
//     consuming an admission slot, so cheap reads survive saturation;
//  2. cache misses take the global semaphore (429 when full), then the
//     per-study semaphore (429 — one slow study must not starve the rest);
//  3. a request that already blew its deadline is shed (503 + Retry-After)
//     before any table work;
//  4. brownout: when the study's refreshes keep failing, misses are shed
//     (503) while cached reads stay alive — stale-but-bounded beats down.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	m := s.metrics()
	began := time.Now()
	defer func() {
		m.Histogram("serve.extract.latency_ms").Observe(float64(time.Since(began).Microseconds()) / 1000)
	}()

	st, ok := s.study(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "no study %q", r.PathValue("name"))
		return
	}
	if err := s.ensureReady(r.Context(), st); err != nil {
		var rej *plancheck.RejectionError
		if errors.As(err, &rej) {
			m.Counter("serve.plan.rejected.requests").Inc()
			httpError(w, http.StatusUnprocessableEntity,
				"study %q plan rejected by static analysis:\n%s", st.name, rej.Report.Text())
			return
		}
		httpError(w, http.StatusInternalServerError, "study %q not ready: %v", st.name, err)
		return
	}
	query, err := parseExtractQuery(st.schema, r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Pin the current generation: stamp, table, and partition counters all
	// come from this one immutable snapshot, so a refresh landing mid-read
	// is invisible — we keep serving the generation we pinned.
	snap := st.pin()
	if snap == nil {
		httpError(w, http.StatusInternalServerError, "study %q not ready: no generation published", st.name)
		return
	}
	defer snap.unpin()

	gen := snap.genFor(query.contributor)
	cacheKey := st.name + "?" + query.key
	if body, ok := s.results.get(cacheKey, gen); ok {
		m.Counter("serve.extract.cache.hit").Inc()
		w.Header().Set("X-Guava-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
		return
	}
	m.Counter("serve.extract.cache.miss").Inc()

	// Tier: global admission.
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	default:
		m.Counter("serve.rejected").Inc()
		m.Counter("serve.shed.saturated").Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "server saturated: %d extracts in flight", cap(s.slots))
		return
	}
	ifl := m.Gauge("serve.inflight")
	ifl.Add(1)
	defer ifl.Add(-1)

	// Tier: per-study admission.
	if st.slots != nil {
		select {
		case st.slots <- struct{}{}:
			defer func() { <-st.slots }()
		default:
			m.Counter("serve.shed.study").Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "study %q saturated: %d extracts in flight", st.name, cap(st.slots))
			return
		}
	}

	// Tier: deadline-aware shed — don't start table work the client has
	// already given up on.
	if err := r.Context().Err(); err != nil {
		m.Counter("serve.shed.deadline").Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "request deadline exceeded")
		return
	}

	// Tier: brownout — refresh is persistently failing, so shed the miss
	// path and let cached extracts carry the load while it recovers.
	if ba := s.cfg.BrownoutAfter; ba > 0 && st.consecFails.Load() >= int64(ba) {
		m.Counter("serve.shed.brownout").Inc()
		w.Header().Set("Retry-After", "2")
		httpError(w, http.StatusServiceUnavailable,
			"study %q is browned out after %d consecutive refresh failures", st.name, st.consecFails.Load())
		return
	}

	// Generations are published in canonical order, so the page is a
	// window over the storage-order matches: count them all, hand out only
	// the page's stored rows, never sort.
	rows, total, err := snap.table.SelectPage(query.pred, query.offset, query.limit)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "extract failed: %v", err)
		return
	}
	page := make([][]any, 0, rows.Len())
	for _, row := range rows.Data {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = valueJSON(v)
		}
		page = append(page, cells)
	}
	body, err := json.Marshal(map[string]any{
		"study":      st.name,
		"generation": gen,
		"total":      total,
		"offset":     query.offset,
		"limit":      query.limit,
		"returned":   rows.Len(),
		"columns":    columnInfos(st.schema),
		"rows":       page,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "render failed: %v", err)
		return
	}
	body = append(body, '\n')
	evicted := s.results.put(cacheKey, gen, body)
	m.Counter("serve.extract.cache.evicted").Add(int64(evicted))

	w.Header().Set("X-Guava-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleRefresh forces a refresh of one study and reports the merge stats.
// ?mode=delta runs the incremental path from the contributors' change
// journals; the default (or ?mode=full) re-runs the whole plan.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	st, ok := s.study(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "no study %q", r.PathValue("name"))
		return
	}
	mode := r.URL.Query().Get("mode")
	refreshMode := etl.FullRefresh
	switch mode {
	case "", "full":
		mode = "full"
	case "delta":
		if !deltaCapable(st.spec) {
			httpError(w, http.StatusConflict, "study %q is not delta-capable: a contributor has no change journal", st.name)
			return
		}
		refreshMode = etl.DeltaRefresh
	default:
		httpError(w, http.StatusBadRequest, "unknown refresh mode %q (want full or delta)", mode)
		return
	}
	s.metrics().Counter("serve.refresh.forced").Inc()
	stats, err := s.refresh(r.Context(), st, refreshMode, "forced")
	if err != nil {
		var rej *plancheck.RejectionError
		if errors.As(err, &rej) {
			s.metrics().Counter("serve.plan.rejected.requests").Inc()
			httpError(w, http.StatusUnprocessableEntity,
				"study %q plan rejected by static analysis:\n%s", st.name, rej.Report.Text())
			return
		}
		httpError(w, http.StatusInternalServerError, "refresh failed: %v", err)
		return
	}
	var gen int64
	if g := st.cur.Load(); g != nil {
		gen = g.num
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"study":      st.name,
		"mode":       mode,
		"generation": gen,
		"changed":    stats.Changed(),
		"stats":      statsJSON{Total: stats.Total, Added: stats.Added, Updated: stats.Updated, Unchanged: stats.Unchanged},
	})
}
