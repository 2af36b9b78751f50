package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload briefly at 50 records per contributor,
// untraced and traced. Each run must pass its correctness checks and emit
// exactly the metrics, with the units, that BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range decl.Workloads {
		names[w.Name] = true
	}
	for _, w := range workloads {
		if !names[w.name] {
			t.Errorf("workload %s is not declared", w.name)
		}
		delete(names, w.name)
	}
	for name := range names {
		t.Errorf("declared workload %s does not exist", name)
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 42, dur: time.Second, n: 50, workdir: t.TempDir()}
			plain, err := measure(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := newReport(plain, endToEnd(plain), endToEndUnits)
			if !rep.Correct || rep.Failed > 0 {
				t.Fatalf("untraced run: correct=%v failed=%d check=%v", rep.Correct, rep.Failed, plain.checkErr)
			}
			sameMetrics(t, rep.Metrics, decl.EndToEnd)

			cfg.traced = true
			traced, err := measure(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep = newReport(traced, layerMetrics(traced, plain.p50()), layerUnits)
			if !rep.Correct {
				t.Fatalf("traced run: correct=false, check=%v", traced.checkErr)
			}
			sameMetrics(t, rep.Metrics, decl.PerLayer)
		})
	}
}

// sameMetrics requires got and want to name the same metrics with the same
// units, in both directions.
func sameMetrics(t *testing.T, got map[string]metricValue, want []declaredMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	for name, v := range got {
		unit, ok := units[name]
		switch {
		case !ok:
			t.Errorf("emitted %s is not declared", name)
		case unit != v.Unit:
			t.Errorf("%s emitted in %s, declared in %s", name, v.Unit, unit)
		}
	}
	for name := range units {
		if _, ok := got[name]; !ok {
			t.Errorf("declared %s was not emitted", name)
		}
	}
}
