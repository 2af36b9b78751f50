package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"guava/internal/etl"
	"guava/internal/obs"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	span := func(id, parent int64, from, to int) obs.SpanRecord {
		return obs.SpanRecord{ID: id, Parent: parent, Start: t0.Add(time.Duration(from) * time.Millisecond),
			DurationNS: int64(time.Duration(to-from) * time.Millisecond)}
	}
	parent := span(1, 0, 0, 100)
	children := []obs.SpanRecord{
		span(2, 1, 10, 40),
		span(3, 1, 30, 60),  // overlaps the first: together they cover 10..60
		span(4, 1, 80, 120), // runs past the parent: only 80..100 counts
	}
	if got, want := selfTime(parent, children), 30*time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self time without children = %v, want the whole span", got)
	}
}

func TestCountingFSCountsAtomicWrite(t *testing.T) {
	fs := &countingFS{FS: etl.OSFS{}}
	data := bytes.Repeat([]byte("guava"), 2000)
	if err := etl.WriteFileAtomic(fs, filepath.Join(t.TempDir(), "gen-1", "table.rel"), data); err != nil {
		t.Fatal(err)
	}
	c := fs.counts()
	if c.bytes != int64(len(data)) || c.syncs != 1 {
		t.Errorf("counted %d bytes and %d fsyncs, want %d and 1", c.bytes, c.syncs, len(data))
	}
	if c.busy <= 0 {
		t.Error("no time counted in write-path calls")
	}
}

// The probes time a copy of the final generation; that copy must be the
// served table, row for row.
func TestProbeTableMatchesServedTable(t *testing.T) {
	d, err := deploy(context.Background(), config{seed: 42, n: 50, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.tick("delta"); err != nil {
		t.Fatal(err)
	}
	served, err := d.servedRows()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := freshRows(d.contribs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := probeTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	probe := table.Rows().Data
	if len(probe) != len(served) {
		t.Fatalf("probe table has %d rows, served %d", len(probe), len(served))
	}
	for i, r := range probe {
		b, err := rowJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, served[i]) {
			t.Fatalf("row %d: probe %s, served %s", i, b, served[i])
		}
	}
}
