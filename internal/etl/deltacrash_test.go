package etl_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// TestDeltaCrashResume simulates a process dying mid-delta-refresh — either
// before a contributor's warehouse patch lands (CrashBeforeWork) or after
// the patch but before the cursor advances (CrashAfterWork) — and asserts
// that resuming from the persisted cursor file converges to the same
// warehouse and cursors as a run that was never interrupted. Stats are
// deliberately not compared: an idempotent re-apply legitimately reports
// rows Unchanged that the uninterrupted run reported Added or Updated.
func TestDeltaCrashResume(t *testing.T) {
	const (
		seed      = 11
		n         = 30
		batchSeed = 99
		batchSize = 15
	)
	cases := []struct {
		name    string
		after   bool // CrashAfterWork instead of CrashBeforeWork
		crashAt int  // 1-based contributor apply on which to crash
	}{
		// Dying before the second contributor's patch leaves the first
		// contributor applied with its cursor advanced only in memory.
		{name: "before-second-apply", after: false, crashAt: 2},
		// Dying right after the first patch leaves warehouse writes with no
		// cursor record at all — resume must re-apply idempotently.
		{name: "after-first-apply", after: true, crashAt: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()

			// The uninterrupted run this scenario must converge to.
			base, err := buildEquivUniverse(seed, n)
			if err != nil {
				t.Fatal(err)
			}
			baseRef := base.studies[0]
			baseWH := relstore.NewDB("warehouse_base")
			baseCur := etl.NewDeltaCursors()
			if _, err := baseRef.Refresh(ctx, baseWH, etl.RefreshOptions{Cursors: baseCur}); err != nil {
				t.Fatal(err)
			}
			batch := workload.RandomBatch(base.contribs, batchSeed, batchSize)
			if err := workload.Apply(base.contribs, batch); err != nil {
				t.Fatal(err)
			}
			if _, err := baseRef.Refresh(ctx, baseWH, etl.RefreshOptions{Mode: etl.DeltaRefresh, Cursors: baseCur}); err != nil {
				t.Fatal(err)
			}

			// The crashing universe: identical build, same batch.
			crash, err := buildEquivUniverse(seed, n)
			if err != nil {
				t.Fatal(err)
			}
			ref := crash.studies[0]
			wh := relstore.NewDB("warehouse_crash")
			cursors := etl.NewDeltaCursors()
			if _, err := ref.Refresh(ctx, wh, etl.RefreshOptions{Cursors: cursors}); err != nil {
				t.Fatal(err)
			}
			cursorFile := filepath.Join(t.TempDir(), "cursors.json")
			if err := cursors.Save(cursorFile); err != nil {
				t.Fatal(err)
			}
			if err := workload.Apply(crash.contribs, batch); err != nil {
				t.Fatal(err)
			}

			chaos := &faulty.Chaos{CrashBeforeWork: !tc.after, CrashAfterWork: tc.after}
			applies := 0
			hook := func(string) error {
				applies++
				if applies == tc.crashAt {
					return chaos.Run(ctx, nil)
				}
				return nil
			}
			opts := etl.RefreshOptions{Mode: etl.DeltaRefresh, Cursors: cursors}
			if tc.after {
				opts.Hooks.AfterApply = hook
			} else {
				opts.Hooks.BeforeApply = hook
			}
			if _, err := ref.Refresh(ctx, wh, opts); !errors.Is(err, faulty.ErrCrashed) {
				t.Fatalf("crash run error = %v, want ErrCrashed", err)
			}

			// "Resume": the in-memory cursors died with the process, so the
			// next run loads the last durably saved ones and replays —
			// re-applying any already-patched contributor idempotently.
			resumed, err := etl.LoadDeltaCursors(cursorFile)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Refresh(ctx, wh, etl.RefreshOptions{Mode: etl.DeltaRefresh, Cursors: resumed}); err != nil {
				t.Fatalf("resume refresh: %v", err)
			}

			table := ref.Output.Table
			got, err := canonicalBytes(wh, table)
			if err != nil {
				t.Fatal(err)
			}
			want, err := canonicalBytes(baseWH, table)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("crash+resume warehouse diverged from uninterrupted run:\n--- resumed ---\n%s\n--- base ---\n%s", got, want)
			}
			if g, w := resumed.Snapshot(), baseCur.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Errorf("resumed cursors = %v, want %v", g, w)
			}
		})
	}
}
