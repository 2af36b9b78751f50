package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/obs"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// storeGen builds a standalone generation for store-level tests: a tiny
// contributor-indexed table with the given row count.
func storeGen(t *testing.T, num int64, rows int) *generation {
	t.Helper()
	schema := relstore.MustSchema(
		relstore.Column{Name: etl.ContributorColumn, Type: relstore.KindString},
		relstore.Column{Name: "N", Type: relstore.KindInt},
	)
	tb := relstore.NewTable("warehouse_t", schema)
	for i := 0; i < rows; i++ {
		if err := tb.Insert(relstore.Row{relstore.Str("clinicA"), relstore.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return &generation{num: num, table: tb, partGens: map[string]int64{"clinicA": num}}
}

// TestGenStoreSaveRecoverRoundTrip is the happy path: two clean saves, then
// recovery picks the newest generation and retires the older directory.
func TestGenStoreSaveRecoverRoundTrip(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewObserver().Metrics
	gs := newGenStore(etl.OSFS{}, root, 2, func() *obs.Registry { return reg }, t.Logf)

	for n, rows := range map[int64]int{1: 4, 2: 5} {
		if err := gs.save(storeGen(t, n, rows), n); err != nil {
			t.Fatalf("save gen %d: %v", n, err)
		}
	}
	rec, err := gs.recover()
	if err != nil || rec == nil {
		t.Fatalf("recover = %v, %v", rec, err)
	}
	if rec.man.Gen != 2 || len(rec.rows.Data) != 5 {
		t.Errorf("recovered gen %d with %d rows, want gen 2 with 5", rec.man.Gen, len(rec.rows.Data))
	}
	if _, err := os.Stat(filepath.Join(root, "gen-1")); !os.IsNotExist(err) {
		t.Errorf("older gen-1 dir not retired at recovery: %v", err)
	}
	if got := reg.Counter("serve.snapshot.gc").Value(); got != 1 {
		t.Errorf("serve.snapshot.gc = %d, want 1", got)
	}
}

// TestRecoveryFaultMatrix runs every faulty.FS fault class against the
// generation store's write or read path and checks the recovery contract:
// a corrupted newest generation is detected (never served) and recovery
// falls back to the last complete one; a loud write error surfaces to the
// caller; a pure-latency fault corrupts nothing.
func TestRecoveryFaultMatrix(t *testing.T) {
	cases := []struct {
		name          string
		saveFaults    []faulty.FSFault // armed on gen-2's save
		recoverFaults []faulty.FSFault // armed on the recovery reads
		wantSaveErr   bool
		wantGen       int64 // generation recovery must land on
		wantRows      int
		wantTorn      int64
	}{
		{
			name:       "short_write_tears_table",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultShortWrite, Path: "table.rel"}},
			wantGen:    1, wantRows: 4, wantTorn: 1,
		},
		{
			name:       "torn_rename_tears_manifest",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultTornRename, Path: "MANIFEST"}},
			wantGen:    1, wantRows: 4, wantTorn: 1,
		},
		{
			name:       "drop_sync_tears_manifest",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultDropSync, Path: "MANIFEST"}},
			wantGen:    1, wantRows: 4, wantTorn: 1,
		},
		{
			name:        "enospc_fails_save_loudly",
			saveFaults:  []faulty.FSFault{{Kind: faulty.FaultENOSPC, Path: "table.rel"}},
			wantSaveErr: true,
			// The aborted gen-2 dir (created before the write failed) is
			// detected as torn and swept.
			wantGen: 1, wantRows: 4, wantTorn: 1,
		},
		{
			name:          "bit_flip_corrupts_recovery_read",
			recoverFaults: []faulty.FSFault{{Kind: faulty.FaultBitFlip, Path: "gen-2"}},
			wantGen:       1, wantRows: 4, wantTorn: 1,
		},
		{
			name:       "latency_corrupts_nothing",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultLatency, Path: "table.rel"}},
			wantGen:    2, wantRows: 5, wantTorn: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			reg := obs.NewObserver().Metrics
			metrics := func() *obs.Registry { return reg }

			// Gen 1 is always saved cleanly: the last known-good state.
			clean := newGenStore(etl.OSFS{}, root, 2, metrics, t.Logf)
			if err := clean.save(storeGen(t, 1, 4), 1); err != nil {
				t.Fatalf("clean save: %v", err)
			}

			// Gen 2 is saved through the fault-injecting FS. A silent fault
			// reports success here — mimicking a crash right after the write,
			// before any GC of gen-1 could run.
			g2 := storeGen(t, 2, 5)
			werr := newGenStore(faulty.NewFS(etl.OSFS{}, tc.saveFaults...), root, 2, metrics, t.Logf).save(g2, 2)
			if tc.wantSaveErr {
				if !errors.Is(werr, faulty.ErrNoSpace) {
					t.Fatalf("save error = %v, want ErrNoSpace", werr)
				}
			} else if werr != nil {
				t.Fatalf("save unexpectedly loud: %v", werr)
			}

			// Restart: recover through a (possibly fault-injecting) FS.
			var rfs etl.FS = etl.OSFS{}
			if len(tc.recoverFaults) > 0 {
				rfs = faulty.NewFS(etl.OSFS{}, tc.recoverFaults...)
			}
			rec, rerr := newGenStore(rfs, root, 2, metrics, t.Logf).recover()
			if rerr != nil || rec == nil {
				t.Fatalf("recover = %v, %v", rec, rerr)
			}
			if rec.man.Gen != tc.wantGen || len(rec.rows.Data) != tc.wantRows {
				t.Errorf("recovered gen %d with %d rows, want gen %d with %d",
					rec.man.Gen, len(rec.rows.Data), tc.wantGen, tc.wantRows)
			}
			if got := reg.Counter("serve.snapshot.torn").Value(); got != tc.wantTorn {
				t.Errorf("serve.snapshot.torn = %d, want %d", got, tc.wantTorn)
			}
			// Whatever recovery rejected must be gone from disk: a second
			// recovery over the same root sees only the chosen generation.
			if tc.wantGen == 1 {
				if _, err := os.Stat(filepath.Join(root, "gen-2")); !os.IsNotExist(err) {
					t.Errorf("torn gen-2 dir survived recovery: %v", err)
				}
			}
		})
	}
}

// TestServerCrashRecoveryServesLastGoodGeneration is the end-to-end crash
// story: a server persists generations while serving, dies without any
// shutdown, and a fresh process over the same warehouse dir serves an
// identical extract from disk — without re-running the study plan.
func TestServerCrashRecoveryServesLastGoodGeneration(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	spec := fixtureSpec(t, goodHabits)
	srv := NewServer(Config{Observer: obs.NewObserver(), WarehouseDir: dir})
	if err := srv.AddStudy(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	submitSurgical(t, spec.Contributors[0], 300)
	if code, body := post(t, ts.URL+"/studies/exsmoker/refresh"); code != 200 || body["generation"].(float64) != 2 {
		t.Fatalf("refresh = %d %v, want generation 2", code, body)
	}
	_, _, before := get(t, ts.URL+"/studies/exsmoker/extract")
	ts.Close() // SIGKILL stand-in: no Shutdown, no drain, no final persist

	// The restarted process gets a *fresh* fixture spec — one that lacks the
	// surgical record added above. If recovery secretly re-ran the plan, the
	// extract would have 4 rows, not 5.
	o2 := obs.NewObserver()
	srv2 := NewServer(Config{Observer: o2, WarehouseDir: dir, Logf: t.Logf})
	if err := srv2.AddStudy(ctx, fixtureSpec(t, goodHabits)); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)

	_, _, after := get(t, ts2.URL+"/studies/exsmoker/extract")
	if !reflect.DeepEqual(before["rows"], after["rows"]) || before["total"] != after["total"] {
		t.Errorf("post-crash extract differs from pre-crash:\n before %v\n after  %v", before, after)
	}
	if got := o2.Metrics.Counter("serve.snapshot.recovered").Value(); got != 1 {
		t.Errorf("serve.snapshot.recovered = %d, want 1", got)
	}
	if got := o2.Metrics.Counter("refresh.runs").Value(); got != 0 {
		t.Errorf("refresh.runs = %d after recovery, want 0 (no plan re-run)", got)
	}

	// /studies reports the recovered generation from the same snapshot.
	_, _, studies := get(t, ts2.URL+"/studies")
	list := studies["studies"].([]any)
	if got := list[0].(map[string]any)["generation"].(float64); got != 2 {
		t.Errorf("recovered /studies generation = %v, want 2", got)
	}

	// A forced refresh still works on top of the recovered state.
	if code, body := post(t, ts2.URL+"/studies/exsmoker/refresh"); code != 200 {
		t.Fatalf("refresh after recovery = %d %v", code, body)
	}
}

// TestSnapshotGCUnderPinnedReaders hammers pin/extract against persisted
// refreshes and checks the on-disk GC invariant: once the dust settles,
// exactly one generation directory — the current one — remains.
func TestSnapshotGCUnderPinnedReaders(t *testing.T) {
	dir := t.TempDir()
	spec := fixtureSpec(t, goodHabits)
	srv := NewServer(Config{Observer: obs.NewObserver(), WarehouseDir: dir})
	if err := srv.AddStudy(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.study("exsmoker")

	const (
		readers = 8
		reads   = 40
		writes  = 12
	)
	var wg sync.WaitGroup
	clinicA := spec.Contributors[0]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := clinicA.Stack.WriteValues(clinicA.DB, clinicA.Form, map[string]relstore.Value{
				"ProcedureID":      relstore.Int(int64(400 + i)),
				"PacksPerDay":      relstore.Float(float64(i)),
				"Hypoxia":          relstore.Bool(i%2 == 0),
				"SurgeryPerformed": relstore.Bool(true),
			}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if _, err := srv.refresh(context.Background(), st, etl.FullRefresh, "stress"); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				g := st.pin()
				if g == nil {
					t.Error("pin = nil on a ready study")
					return
				}
				// While pinned, the snapshot is internally consistent and —
				// when persisted — its directory must still exist.
				if want := 4 + int(g.num) - 1; g.table.Len() != want {
					t.Errorf("gen %d has %d rows, want %d", g.num, g.table.Len(), want)
				}
				if g.dir != "" {
					if _, err := os.Stat(g.dir); err != nil {
						t.Errorf("pinned generation %d lost its dir: %v", g.num, err)
					}
				}
				g.unpin()
			}
		}()
	}
	wg.Wait()

	if gen := testGen(st); gen != 1+writes {
		t.Fatalf("final generation = %d, want %d", gen, 1+writes)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "exsmoker"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range ents {
		dirs = append(dirs, e.Name())
	}
	if len(dirs) != 1 || dirs[0] != "gen-13" {
		t.Errorf("generation dirs after GC = %v, want [gen-13]", dirs)
	}
}

// persistedManifest loads the MANIFEST of a study's current generation.
func persistedManifest(t *testing.T, st *servedStudy) *genManifest {
	t.Helper()
	g := st.cur.Load()
	if g == nil || g.dir == "" {
		t.Fatal("current generation is not persisted")
	}
	man, _, err := st.store.loadGen(g.dir)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestDeltaAndFullRefreshPersistSameTable: generations are stored in
// canonical order, so table.rel depends only on the rows. Three deployments
// start from one state and apply the same mutations; one refreshes by
// delta, one in full, and one is rebuilt from scratch over the mutated
// contributors. All three persist byte-identical tables.
func TestDeltaAndFullRefreshPersistSameTable(t *testing.T) {
	const seed, n = 7, 40
	delta, full, rebuilt := deployWorkload(t, seed, n), deployWorkload(t, seed, n), deployWorkload(t, seed, n)
	for round := int64(0); round < 3; round++ {
		batch := workload.RandomBatch(delta.contribs, 100+round, 30)
		for _, d := range []*workloadDeployment{delta, full, rebuilt} {
			if err := workload.Apply(d.contribs, batch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := delta.srv.refresh(context.Background(), delta.st, etl.DeltaRefresh, "test"); err != nil {
			t.Fatal(err)
		}
		if _, err := full.srv.refresh(context.Background(), full.st, etl.FullRefresh, "test"); err != nil {
			t.Fatal(err)
		}
		rebuilt.dir = t.TempDir()
		rebuilt.start(t)
		want := persistedManifest(t, rebuilt.st)
		for route, d := range map[string]*workloadDeployment{"delta": delta, "full": full} {
			if got := persistedManifest(t, d.st); got.Rows != want.Rows || got.TableSHA != want.TableSHA {
				t.Fatalf("round %d: %s refresh persisted %d rows sha %s, rebuild %d rows sha %s",
					round, route, got.Rows, got.TableSHA, want.Rows, want.TableSHA)
			}
		}
	}
}

// TestRecoveryReordersShuffledTable recovers a generation whose table.rel
// holds its rows out of canonical order, as files written before
// generations were ordered do, and requires the same extracts as the
// canonical generation it was shuffled from.
func TestRecoveryReordersShuffledTable(t *testing.T) {
	d := deployWorkload(t, 13, 40)
	r := rand.New(rand.NewSource(13))
	canonical := checkExtracts(t, r, d, "canonical")

	// Rewrite the persisted generation in place with its rows shuffled.
	g := d.st.cur.Load()
	man := persistedManifest(t, d.st)
	rows := g.table.Rows()
	shuffled := rows.Clone()
	r.Shuffle(len(shuffled.Data), func(i, j int) {
		shuffled.Data[i], shuffled.Data[j] = shuffled.Data[j], shuffled.Data[i]
	})
	if reflect.DeepEqual(shuffled.Data, rows.Data) {
		t.Fatal("shuffle left the rows in canonical order")
	}
	var table bytes.Buffer
	if err := relstore.WriteTypedSegmented(&table, shuffled, 16); err != nil {
		t.Fatal(err)
	}
	tableSum := sha256.Sum256(table.Bytes())
	man.TableSHA = hex.EncodeToString(tableSum[:])
	payload, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, '\n')
	sum := sha256.Sum256(payload)
	manifest := genManifestVersion + "\nsha256 " + hex.EncodeToString(sum[:]) + "\n" + string(payload)
	if err := os.WriteFile(filepath.Join(g.dir, man.Table), table.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(g.dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	d.start(t)
	if got := d.srv.metrics().Counter("serve.snapshot.recovered").Value(); got != 1 {
		t.Fatalf("serve.snapshot.recovered = %d, want 1", got)
	}
	rec := d.st.cur.Load()
	if !reflect.DeepEqual(rec.table.Rows().Data, rows.Data) {
		t.Error("recovered table is not in canonical order")
	}
	for q, want := range canonical {
		params, _ := url.ParseQuery(q)
		if got := d.extract(t, params); !bytes.Equal(got, want) {
			t.Fatalf("extract %s after recovering the shuffled file\n got  %s\n want %s", q, got, want)
		}
	}
}
