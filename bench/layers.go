package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// Per-layer numbers come from four sources, all read from outside the
// program: the spans studyd already emits, the counters in its registry and
// in obs.Default, a counting filesystem under the warehouse, and probes that
// time public functions on a copy of the final generation.

// countingFS wraps the warehouse filesystem and counts what the generation
// store writes: bytes, fsyncs, and the time spent in write-path calls.
type countingFS struct {
	etl.FS
	bytes  atomic.Int64
	syncs  atomic.Int64
	busyNS atomic.Int64
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct {
	bytes, syncs int64
	busy         time.Duration
}

func (c fsCounts) minus(o fsCounts) fsCounts {
	return fsCounts{bytes: c.bytes - o.bytes, syncs: c.syncs - o.syncs, busy: c.busy - o.busy}
}

func (f *countingFS) counts() fsCounts {
	return fsCounts{bytes: f.bytes.Load(), syncs: f.syncs.Load(), busy: time.Duration(f.busyNS.Load())}
}

func (f *countingFS) timed(fn func() error) error {
	t := time.Now()
	err := fn()
	f.busyNS.Add(int64(time.Since(t)))
	return err
}

func (f *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.timed(func() error { return f.FS.MkdirAll(path, perm) })
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	return f.timed(func() error { return f.FS.Rename(oldpath, newpath) })
}

func (f *countingFS) CreateTemp(dir, pattern string) (etl.FSFile, error) {
	var file etl.FSFile
	err := f.timed(func() (err error) {
		file, err = f.FS.CreateTemp(dir, pattern)
		return err
	})
	if err != nil {
		return nil, err
	}
	return countingFile{FSFile: file, fs: f}, nil
}

type countingFile struct {
	etl.FSFile
	fs *countingFS
}

func (c countingFile) Write(p []byte) (n int, err error) {
	err = c.fs.timed(func() error {
		n, err = c.FSFile.Write(p)
		return err
	})
	c.fs.bytes.Add(int64(n))
	return n, err
}

func (c countingFile) Sync() error {
	c.fs.syncs.Add(1)
	return c.fs.timed(c.FSFile.Sync)
}

func (c countingFile) Close() error { return c.fs.timed(c.FSFile.Close) }

// persistSample is what one refresh wrote, and how many rows it changed.
type persistSample struct {
	fsCounts
	changed int
}

// missTally sums the rows cache misses matched and returned.
type missTally struct{ total, returned atomic.Int64 }

func (m *missTally) add(total, returned int) {
	m.total.Add(int64(total))
	m.returned.Add(int64(returned))
}

// relCounts is the relational work recorded in obs.Default.
type relCounts struct{ batchRows, sortCalls int64 }

func readRelCounts() relCounts {
	return relCounts{
		batchRows: obs.Default.Counter("relstore.batch.rows").Value(),
		sortCalls: obs.Default.Counter("relstore.ops.sort_by").Value(),
	}
}

func (c relCounts) minus(o relCounts) relCounts {
	return relCounts{batchRows: c.batchRows - o.batchRows, sortCalls: c.sortCalls - o.sortCalls}
}

// selfTime is a span's duration minus the part of its interval that the
// union of its children covers. Children may run in parallel, so their
// durations cannot simply be subtracted.
func selfTime(parent obs.SpanRecord, children []obs.SpanRecord) time.Duration {
	type interval struct{ lo, hi time.Time }
	pLo := parent.Start
	pHi := pLo.Add(time.Duration(parent.DurationNS))
	var ivs []interval
	for _, c := range children {
		lo, hi := c.Start, c.Start.Add(time.Duration(c.DurationNS))
		if lo.Before(pLo) {
			lo = pLo
		}
		if hi.After(pHi) {
			hi = pHi
		}
		if hi.After(lo) {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case !iv.lo.After(cur.hi):
			if iv.hi.After(cur.hi) {
				cur.hi = iv.hi
			}
		default:
			covered += cur.hi.Sub(cur.lo)
			cur = iv
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return time.Duration(parent.DurationNS) - covered
}

// spanIndex looks spans up by name and by parent.
type spanIndex struct {
	byName map[string][]obs.SpanRecord
	kids   map[int64][]obs.SpanRecord
}

func indexSpans(spans []obs.SpanRecord) spanIndex {
	ix := spanIndex{byName: map[string][]obs.SpanRecord{}, kids: map[int64][]obs.SpanRecord{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations, in ms, of every span with the name.
func (ix spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(time.Duration(s.DurationNS)))
	}
	return out
}

// selfTimes returns, in ms, each named span's self time.
func (ix spanIndex) selfTimes(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(selfTime(s, ix.kids[s.ID])))
	}
	return out
}

// workflowStages splits every workflow run into stage times, in ms: select
// and classify summed over the contributors, the union, and the critical
// path (the slowest extract→classify chain, then the union).
func (ix spanIndex) workflowStages() (sel, cls, union, critical []float64) {
	for _, wf := range ix.byName["workflow "+study] {
		steps := map[string]obs.SpanRecord{}
		for _, s := range ix.kids[wf.ID] {
			steps[strings.TrimPrefix(s.Name, "step ")] = s
		}
		var s, c, chain float64
		for id, sp := range steps {
			stage, name, _ := strings.Cut(id, "/")
			switch stage {
			case "select":
				s += ms(time.Duration(sp.DurationNS))
			case "classify":
				c += ms(time.Duration(sp.DurationNS))
				if ex, ok := steps["extract/"+name]; ok {
					end := sp.Start.Add(time.Duration(sp.DurationNS))
					chain = max(chain, ms(end.Sub(ex.Start)))
				}
			}
		}
		u := ms(time.Duration(steps["load/union"].DurationNS))
		sel, cls, union = append(sel, s), append(cls, c), append(union, u)
		critical = append(critical, chain+u)
	}
	return sel, cls, union, critical
}

// probes are public functions timed on a copy of the final generation.
type probes struct {
	clone, segment, encode, sel, sort, readKeys time.Duration
	segmentBytes                                int
}

const probeReps = 20

// checksum keeps the segment probe's SHA-256 live, as the generation store
// keeps it for the MANIFEST.
var checksum [sha256.Size]byte

// scanPreds are the four extract-scan shapes as serve compiles them:
// unfiltered, one contributor, one smoking class, an entity-key range.
func scanPreds() []relstore.Pred {
	eq := func(col string, v relstore.Value) relstore.Pred {
		return relstore.And(relstore.Cmp(relstore.CmpEq, relstore.Col(col), relstore.Lit(v)))
	}
	return []relstore.Pred{
		nil,
		eq(etl.ContributorColumn, relstore.Str(scanContributors[0])),
		eq("Smoking_D3", relstore.Str(scanSmoking[0])),
		relstore.And(
			relstore.Cmp(relstore.CmpGe, relstore.Col(etl.EntityKeyColumn), relstore.Lit(relstore.Int(2500))),
			relstore.Cmp(relstore.CmpLt, relstore.Col(etl.EntityKeyColumn), relstore.Lit(relstore.Int(2550))),
		),
	}
}

// probeTable copies a generation the way a refresh does: a fresh table,
// the Contributor index, every row.
func probeTable(rows *relstore.Rows) (*relstore.Table, error) {
	t := relstore.NewTable("Study_"+study, rows.Schema)
	if err := t.CreateIndex(etl.ContributorColumn); err != nil {
		return nil, err
	}
	return t, t.InsertAll(rows.Data)
}

// runProbes times each probe probeReps times and keeps the medians. rows
// is the final generation; batch is the final delta tick's mutations.
func runProbes(rows *relstore.Rows, spec *etl.StudySpec, batch []workload.Mutation) (probes, error) {
	var p probes
	var table *relstore.Table
	var err error
	p.clone, err = medianOf(func() error {
		table, err = probeTable(rows)
		return err
	})
	if err != nil {
		return p, err
	}
	p.segment, err = medianOf(func() error {
		var buf bytes.Buffer
		if err := relstore.WriteTypedSegmented(&buf, rows, 0); err != nil {
			return err
		}
		checksum = sha256.Sum256(buf.Bytes())
		p.segmentBytes = buf.Len()
		return nil
	})
	if err != nil {
		return p, err
	}
	p.encode, err = medianOf(func() error {
		_, err := json.Marshal(pageBody(rows, 0, 100))
		return err
	})
	if err != nil {
		return p, err
	}
	var sel, srt []time.Duration
	for i := 0; i < probeReps; i++ {
		var s, t time.Duration
		for _, pred := range scanPreds() {
			t0 := time.Now()
			out, err := table.Select(pred)
			if err != nil {
				return p, err
			}
			t1 := time.Now()
			if _, err := relstore.SortBy(out, out.Schema.Names()...); err != nil {
				return p, err
			}
			s, t = s+t1.Sub(t0), t+time.Since(t1)
		}
		sel, srt = append(sel, s), append(srt, t)
	}
	p.sel, p.sort = median(sel), median(srt)
	keys := map[string][]relstore.Value{}
	for _, m := range batch {
		keys[m.Contributor] = append(keys[m.Contributor], relstore.Int(m.Key))
	}
	p.readKeys, err = medianOf(func() error {
		for _, c := range spec.Contributors {
			if _, err := c.Stack.ReadKeys(c.DB, c.Form, keys[c.Name]); err != nil {
				return fmt.Errorf("ReadKeys %s: %w", c.Name, err)
			}
		}
		return nil
	})
	return p, err
}

// pageBody is an extract response body as serve renders it.
func pageBody(rows *relstore.Rows, offset, limit int) map[string]any {
	hi := min(offset+limit, len(rows.Data))
	page := make([][]any, 0, hi-offset)
	for _, r := range rows.Data[offset:hi] {
		page = append(page, cells(r))
	}
	cols := make([]map[string]string, len(rows.Schema.Columns))
	for i, c := range rows.Schema.Columns {
		cols[i] = map[string]string{"name": c.Name, "kind": c.Type.String()}
	}
	return map[string]any{
		"study": study, "generation": 1, "total": len(rows.Data), "offset": offset,
		"limit": limit, "returned": hi - offset, "columns": cols, "rows": page,
	}
}

func medianOf(fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t))
	}
	return median(ds), nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// traceData is everything a traced run collects for the per-layer metrics.
type traceData struct {
	spans    []obs.SpanRecord
	counters map[string]int64 // the server's registry at the end of the run
	persists []persistSample
	missRows int64 // Σ total over cache misses
	missRet  int64 // Σ returned over cache misses
	fullWork relCounts
	probes   probes
	rows     int // rows in the final generation
}

// layerUnits are the metrics a traced run reports, with their units.
var layerUnits = map[string]string{
	"serve.cache_hit_ratio":            "ratio",
	"serve.cache_evictions_per_1k":     "count/1k",
	"serve.shed_ratio":                 "ratio",
	"serve.handler_p50_ms":             "ms",
	"serve.handler_p99_ms":             "ms",
	"serve.encode_p50_ms":              "ms",
	"serve.refresh_self_p50_ms":        "ms",
	"serve.refresh_delta_self_p50_ms":  "ms",
	"serve.persist_bytes_per_refresh":  "bytes",
	"serve.persist_fsyncs_per_refresh": "count",
	"serve.persist_fs_p50_ms":          "ms",
	"serve.persist_write_amp":          "ratio",
	"serve.register_s":                 "s",

	"relstore.select_p50_ms":                "ms",
	"relstore.sort_p50_ms":                  "ms",
	"relstore.rows_sorted_per_row_returned": "ratio",
	"relstore.clone_p50_ms":                 "ms",
	"relstore.segment_encode_p50_ms":        "ms",
	"relstore.batch_rows_per_refresh":       "count",
	"relstore.sort_calls_per_refresh":       "count",

	"etl.workflow_p50_ms":      "ms",
	"etl.critical_path_p50_ms": "ms",
	"etl.select_p50_ms":        "ms",
	"etl.classify_p50_ms":      "ms",
	"etl.union_p50_ms":         "ms",
	"etl.refresh_delta_p50_ms": "ms",
	"etl.delta_keys_per_tick":  "count",

	"patterns.read_p50_ms.CORI":      "ms",
	"patterns.read_p50_ms.EndoSoft":  "ms",
	"patterns.read_p50_ms.MedRecord": "ms",
	"textsrc.read_p50_ms.Notes":      "ms",
	"patterns.readkeys_p50_ms":       "ms",
	"patterns.write_s":               "s",

	"bench.gen_lag_p99_ms":     "ms",
	"bench.trace_overhead_pct": "%",
}

// layerMetrics derives the per-layer metrics of a traced run, none when the
// run's check failed before the probes. untracedP50 is the same workload's
// p50_ms with tracing off.
func layerMetrics(r *result, untracedP50 float64) map[string]float64 {
	t := r.trace
	if t == nil {
		return nil
	}
	ix := indexSpans(t.spans)
	c := t.counters
	extracts := float64(c["serve.extract.cache.hit"] + c["serve.extract.cache.miss"])
	shed := c["serve.shed.saturated"] + c["serve.shed.study"] + c["serve.shed.deadline"] + c["serve.shed.brownout"]

	var bytesW, syncs, changed float64
	var fsBusy []float64
	for _, p := range t.persists {
		bytesW += float64(p.bytes)
		syncs += float64(p.syncs)
		changed += float64(p.changed)
		fsBusy = append(fsBusy, ms(p.busy))
	}
	refreshes := float64(len(t.persists))
	bytesPerRow := float64(t.probes.segmentBytes) / float64(t.rows)

	sel, cls, union, critical := ix.workflowStages()
	var lags []float64
	for _, s := range r.samples() {
		if s.sent {
			lags = append(lags, ms(s.lag))
		}
	}
	return map[string]float64{
		"serve.cache_hit_ratio":            float64(c["serve.extract.cache.hit"]) / extracts,
		"serve.cache_evictions_per_1k":     1000 * float64(c["serve.extract.cache.evicted"]) / extracts,
		"serve.shed_ratio":                 float64(shed) / extracts,
		"serve.handler_p50_ms":             quantile(ix.durations("http GET /studies/{name}/extract"), 0.50),
		"serve.handler_p99_ms":             quantile(ix.durations("http GET /studies/{name}/extract"), 0.99),
		"serve.encode_p50_ms":              ms(t.probes.encode),
		"serve.refresh_self_p50_ms":        quantile(ix.selfTimes("serve.refresh "+study), 0.5),
		"serve.refresh_delta_self_p50_ms":  quantile(ix.selfTimes("serve.refresh-delta "+study), 0.5),
		"serve.persist_bytes_per_refresh":  bytesW / refreshes,
		"serve.persist_fsyncs_per_refresh": syncs / refreshes,
		"serve.persist_fs_p50_ms":          quantile(fsBusy, 0.5),
		"serve.persist_write_amp":          bytesW / (changed * bytesPerRow),
		"serve.register_s":                 median(r.registers).Seconds(),

		"relstore.select_p50_ms":                ms(t.probes.sel),
		"relstore.sort_p50_ms":                  ms(t.probes.sort),
		"relstore.rows_sorted_per_row_returned": float64(t.missRows) / float64(t.missRet),
		"relstore.clone_p50_ms":                 ms(t.probes.clone),
		"relstore.segment_encode_p50_ms":        ms(t.probes.segment),
		"relstore.batch_rows_per_refresh":       float64(t.fullWork.batchRows),
		"relstore.sort_calls_per_refresh":       float64(t.fullWork.sortCalls),

		"etl.workflow_p50_ms":      quantile(ix.durations("workflow "+study), 0.5),
		"etl.critical_path_p50_ms": quantile(critical, 0.5),
		"etl.select_p50_ms":        quantile(sel, 0.5),
		"etl.classify_p50_ms":      quantile(cls, 0.5),
		"etl.union_p50_ms":         quantile(union, 0.5),
		"etl.refresh_delta_p50_ms": quantile(ix.durations("refresh-delta "+study), 0.5),
		"etl.delta_keys_per_tick":  float64(c["refresh.delta.keys"]) / float64(c["serve.refresh.delta"]),

		"patterns.read_p50_ms.CORI":      quantile(ix.durations("step extract/CORI"), 0.5),
		"patterns.read_p50_ms.EndoSoft":  quantile(ix.durations("step extract/EndoSoft"), 0.5),
		"patterns.read_p50_ms.MedRecord": quantile(ix.durations("step extract/MedRecord"), 0.5),
		"textsrc.read_p50_ms.Notes":      quantile(ix.durations("step extract/Notes"), 0.5),
		"patterns.readkeys_p50_ms":       ms(t.probes.readKeys),
		"patterns.write_s":               median(r.writes).Seconds(),

		"bench.gen_lag_p99_ms":     quantile(lags, 0.99),
		"bench.trace_overhead_pct": 100 * (r.p50() - untracedP50) / untracedP50,
	}
}
