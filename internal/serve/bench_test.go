package serve

import (
	"context"
	"fmt"
	"os"
	"testing"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/workload"
)

// benchDeployment is the reference study over the three vendor
// contributors and Notes at n records each, served with a durable
// warehouse directory.
type benchDeployment struct {
	srv      *Server
	st       *servedStudy
	spec     *etl.StudySpec
	contribs []*workload.Contributor
	ticks    int64
}

func deployBench(b *testing.B, n int) *benchDeployment {
	b.Helper()
	vendors, err := workload.BuildAll(42, n)
	if err != nil {
		b.Fatal(err)
	}
	notes, err := workload.BuildNotes(45, n)
	if err != nil {
		b.Fatal(err)
	}
	d := &benchDeployment{contribs: append(vendors, notes)}
	if d.spec, err = baseline.ReferenceSpec(d.contribs); err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		b.Fatal(err)
	}
	d.srv = NewServer(Config{Observer: &obs.Observer{Metrics: obs.NewRegistry()}, WarehouseDir: dir})
	if err := d.srv.AddStudy(context.Background(), d.spec); err != nil {
		b.Fatal(err)
	}
	d.st, _ = d.srv.study(d.spec.Name)
	return d
}

func (d *benchDeployment) remove() { os.RemoveAll(d.srv.cfg.WarehouseDir) }

// tick applies the next 24-mutation batch to the contributors, outside the
// timer, and runs one delta refresh.
func (d *benchDeployment) tick(b *testing.B) {
	b.StopTimer()
	d.ticks++
	if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, d.ticks, 24)); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	if _, err := d.srv.refresh(context.Background(), d.st, etl.DeltaRefresh, "bench"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeltaTick times the tick a refresh-churn user waits for: one
// 24-mutation delta refresh of the reference study over the three vendor
// contributors and Notes — plan, patch, clone, order, persist and publish —
// with a durable warehouse directory, at 1,250, 5,000 (guavabench's size)
// and 50,000 records per contributor, so a cost that tracks the table, not
// the change, shows as growth across sizes. The mutations are applied
// outside the timer. Each size is deployed once and reused across the
// benchmark's runs; deploying 50,000 records takes about ten seconds.
func BenchmarkDeltaTick(b *testing.B) {
	for _, n := range []int{1250, 5000, 50000} {
		var d *benchDeployment
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			if d == nil {
				d = deployBench(b, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.tick(b)
			}
		})
		if d != nil {
			d.remove()
		}
	}
}

// BenchmarkRecoverChain times a restart over the longest chain the store
// keeps at guavabench's scale (5000 records per contributor, ~20k rows): a
// base plus 24-mutation delta records until one more, as large as the
// largest so far, would pass 1/compactShare of the base's table.rel. Each
// op registers the study on a fresh server over the directory — vetting,
// the base load, the replay of every record, the digest check and the
// first Order. A complete chain recovers without deleting anything, so
// every op reads the same directory.
//
// The chain is built once per run of the benchmark binary: its ~200 ticks
// of contributor mutations take about ten seconds.
func BenchmarkRecoverChain(b *testing.B) {
	var d *benchDeployment
	b.Run("records=5000", func(b *testing.B) {
		if d == nil {
			d = deployBench(b, 5000)
			base := d.st.cur.Load().base
			var largest int64
			for {
				before := d.st.cur.Load().logBytes
				d.tick(b)
				g := d.st.cur.Load()
				if g.base != base {
					b.Fatalf("tick %d compacted before the chain reached its bound", d.ticks)
				}
				largest = max(largest, g.logBytes-before)
				if g.logBytes+largest > g.baseBytes/compactShare {
					break
				}
			}
		}
		want := d.st.cur.Load()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv := NewServer(Config{Observer: &obs.Observer{Metrics: obs.NewRegistry()}, WarehouseDir: d.srv.cfg.WarehouseDir})
			if err := srv.AddStudy(ctx, d.spec); err != nil {
				b.Fatal(err)
			}
			st, _ := srv.study(d.spec.Name)
			if g := st.cur.Load(); g.num != want.num || g.digest != want.digest {
				b.Fatalf("recovered generation %d digest %v, want %d digest %v", g.num, g.digest, want.num, want.digest)
			}
		}
		b.ReportMetric(float64(want.num-want.base), "records")
		b.ReportMetric(float64(want.logBytes)/1024, "chain-KB")
	})
	if d != nil {
		d.remove()
	}
}
