// Command guavabench measures studyd end to end and layer by layer. It
// builds the `studyd -with-text` deployment in-process (four contributors,
// the reference study, a durable warehouse directory), drives it over
// loopback HTTP with one named workload, checks that every response and the
// final warehouse are correct, and prints one JSON line of metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload extract-hot --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh                        # every workload, each in its own process
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with spans, counters and a counting warehouse filesystem attached
// and reports the per-layer metrics instead. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"guava/internal/obs"
)

// setupReps is how many times a run sets the deployment up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	n        int    // records per contributor
	traced   bool   // per-layer run
	workdir  string // warehouse directories and span files go here
}

// result is one measured run of one workload.
type result struct {
	setups, writes, registers []time.Duration
	heapMB                    float64
	fg, bg                    []sample
	stale                     int
	checkErr                  error
	trace                     *traceData // traced runs only
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latencyMS()
	}
	return out
}

func (r *result) p50() float64 { return quantile(latencies(r.fg), 0.5) }

// samples is every timed request, foreground and background.
func (r *result) samples() []sample { return append(append([]sample(nil), r.fg...), r.bg...) }

// hardErrors counts responses that are neither success nor load shedding.
func (r *result) hardErrors() int {
	n := 0
	for _, s := range r.samples() {
		if s.sent && !s.out.ok() && !s.out.shed() {
			n++
		}
	}
	return n
}

// measure sets the deployment up setupReps times, runs the workload's
// timed phase on the last set-up, takes the live heap, and runs the
// correctness check. Traced runs also collect spans, counters and probes.
func measure(ctx context.Context, cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &result{}
	var d *deployment
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		t := time.Now()
		var err error
		if d, err = deploy(ctx, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.warm(d); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t))
		r.writes = append(r.writes, d.write)
		r.registers = append(r.registers, d.register)
	}
	defer d.close()

	var spans *spanCollector
	if cfg.traced {
		spans = collectSpans(d.observer.Tracer)
	}
	ph, err := w.timed(d, cfg.dur)
	if err != nil {
		if spans != nil {
			spans.finish()
		}
		return nil, err
	}
	r.fg, r.bg, r.stale = ph.fg, ph.bg, ph.stale
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapAlloc) / (1 << 20)

	rows, fullWork, err := d.check()
	r.checkErr = err
	if !cfg.traced {
		return r, nil
	}
	drained := spans.finish()
	if err != nil {
		return r, nil
	}
	if err := writeSpans(filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl"), drained); err != nil {
		return nil, err
	}
	t := &traceData{
		counters: map[string]int64{},
		persists: d.persists,
		missRows: d.misses.total.Load(),
		missRet:  d.misses.returned.Load(),
		fullWork: fullWork,
		rows:     len(rows.Data),
	}
	for _, s := range drained {
		t.spans = append(t.spans, s.Record())
	}
	for _, s := range d.observer.Metrics.Snapshot() {
		if s.Kind == "counter" {
			t.counters[s.Name] = int64(s.Value)
		}
	}
	if t.probes, err = runProbes(rows, d.spec, d.lastBatch); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	r.trace = t
	return r, nil
}

// spanCollector drains a tracer into memory every second, as studyd does
// with -trace-out, so the tracer's own buffer stays small.
type spanCollector struct {
	stop chan struct{}
	done chan []*obs.Span
}

func collectSpans(t *obs.Tracer) *spanCollector {
	c := &spanCollector{stop: make(chan struct{}), done: make(chan []*obs.Span, 1)}
	go func() {
		var all []*obs.Span
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				all = append(all, t.Drain()...)
			case <-c.stop:
				c.done <- append(all, t.Drain()...)
				return
			}
		}
	}()
	return c
}

// finish stops the collector and returns every span it drained.
func (c *spanCollector) finish() []*obs.Span {
	close(c.stop)
	return <-c.done
}

func writeSpans(path string, spans []*obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndUnits are the metrics an untraced run reports. p50_ms and p90_ms
// describe the workload's foreground operation: an extract on extract-hot
// and extract-scan, a delta tick on refresh-churn, a full refresh on
// study-full.
var endToEndUnits = map[string]string{
	"setup_s": "s",
	"heap_mb": "MB",
	"p50_ms":  "ms",
	"p90_ms":  "ms",
}

func endToEnd(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s": median(r.setups).Seconds(),
		"heap_mb": r.heapMB,
		"p50_ms":  r.p50(),
		"p90_ms":  quantile(latencies(r.fg), 0.90),
	}
}

// newReport assembles the JSON line. A run is correct when no response was
// a hard error, no read went back in time, the final check passed, and every
// metric is a finite number (a percentile that lands on a failed request is
// +Inf).
func newReport(r *result, values map[string]float64, units map[string]string) report {
	rep := report{Metrics: map[string]metricValue{}}
	rep.Correct = r.hardErrors() == 0 && r.stale == 0 && r.checkErr == nil
	for _, s := range r.samples() {
		rep.Attempted++
		if s.failed() {
			rep.Failed++
		}
	}
	for name, v := range values {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			fmt.Fprintf(os.Stderr, "guavabench: %s is %v\n", name, v)
			rep.Correct, v = false, 0
		}
		rep.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	return rep
}

func main() {
	cfg := config{n: 5000, workdir: filepath.Join(".bench_build", "run")}
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run (extract-hot, extract-scan, refresh-churn, study-full, all)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed for the data, the request mixes, the schedules and the mutation batches")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	cfg.dur, cfg.traced = time.Duration(*seconds*float64(time.Second)), *trace == 1
	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case cfg.dur <= 0:
		err = errors.New("--seconds must be positive")
	default:
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "guavabench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.workload == "all" {
		for _, w := range workloads {
			c := cfg
			c.workload = w.name
			if err := child(os.Stdout, c); err != nil {
				return err
			}
		}
		return nil
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	fmt.Printf("guavabench: workload=%s seed=%d seconds=%g traced=%v GOMAXPROCS=%d nproc=%d go=%s commit=%s\n",
		w.name, cfg.seed, cfg.dur.Seconds(), cfg.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())

	var untracedP50 float64
	if cfg.traced {
		// The untraced run goes first, in a fresh process, for the overhead.
		var out bytes.Buffer
		c := cfg
		c.traced = false
		if err := child(&out, c); err != nil {
			return err
		}
		os.Stderr.Write(out.Bytes())
		base, err := lastReport(out.Bytes())
		if err != nil {
			return err
		}
		untracedP50 = base.Metrics["p50_ms"].Value
	}
	r, err := measure(context.Background(), cfg)
	if err != nil {
		return err
	}
	summarize(w, r)
	values, units := endToEnd(r), endToEndUnits
	if cfg.traced {
		values, units = layerMetrics(r, untracedP50), layerUnits
	}
	rep := newReport(r, values, units)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errors.New("correctness check failed")
	}
	return nil
}

// summarize prints the run for a reader.
func summarize(w workloadSpec, r *result) {
	fg := latencies(r.fg)
	fmt.Printf("%s: %d foreground requests, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; setup %.3f s; heap %.1f MB\n",
		w.name, len(fg), quantile(fg, 0.5), quantile(fg, 0.9), quantile(fg, 0.99), median(r.setups).Seconds(), r.heapMB)
	if len(r.bg) > 0 {
		bg := latencies(r.bg)
		fmt.Printf("%s: %d background reads, p50 %.3f ms, p99 %.3f ms\n", w.name, len(bg), quantile(bg, 0.5), quantile(bg, 0.99))
	}
	if r.stale > 0 || r.hardErrors() > 0 {
		fmt.Printf("%s: %d stale reads, %d hard errors\n", w.name, r.stale, r.hardErrors())
	}
	if r.checkErr != nil {
		fmt.Printf("%s: check failed: %v\n", w.name, r.checkErr)
	}
}

// child runs cfg's workload in a fresh process of this binary, copying its
// standard output to out.
func child(out io.Writer, cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.dur.Seconds(), 'g', -1, 64), "--trace", trace)
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("workload %s: %w", cfg.workload, err)
	}
	return nil
}

// lastReport parses the JSON line a run prints last.
func lastReport(out []byte) (report, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rep, fmt.Errorf("untraced run printed no result: %w", err)
	}
	return rep, nil
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
