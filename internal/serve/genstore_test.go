package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/obs"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// storeSchema is the warehouse shape of store-level tests: the two key
// columns every study table opens with, and one value.
var storeSchema = relstore.MustSchema(
	relstore.Column{Name: etl.EntityKeyColumn, Type: relstore.KindInt, NotNull: true},
	relstore.Column{Name: etl.ContributorColumn, Type: relstore.KindString, NotNull: true},
	relstore.Column{Name: "N", Type: relstore.KindInt},
)

// storeRow is entity key's one row at clinicA.
func storeRow(key int) relstore.Row {
	return relstore.Row{relstore.Int(int64(key)), relstore.Str("clinicA"), relstore.Int(int64(10 * key))}
}

// storeGen builds a standalone generation for store-level tests: a tiny
// contributor-indexed table with the given row count.
func storeGen(t *testing.T, num int64, rows int) *generation {
	t.Helper()
	tb := relstore.NewTable("warehouse_t", storeSchema)
	for i := 0; i < rows; i++ {
		if err := tb.Insert(storeRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	return &generation{num: num, table: tb, partGens: map[string]int64{"clinicA": num}}
}

// storeRecord persists the successor of g as a patch record in g's base
// directory: entity key drop's row is removed (when drop >= 0) and key
// add's row inserted. It returns the successor and the save's error.
func storeRecord(t *testing.T, gs *genStore, g *generation, drop, add int) (*generation, error) {
	t.Helper()
	report := &etl.RefreshReport{Inserted: []relstore.Row{storeRow(add)}}
	var groups []relstore.Row
	if drop >= 0 {
		report.Removed = []relstore.Row{storeRow(drop)}
		groups = []relstore.Row{storeRow(drop)[:2]}
	}
	next := &generation{num: g.num + 1, table: g.table.Clone(), partGens: map[string]int64{"clinicA": g.num + 1},
		digest: g.digest}
	if err := etl.ApplyPatch(next.table, groups, report.Inserted); err != nil {
		t.Fatal(err)
	}
	lines, err := renderPatch(report, &next.digest)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := encodeRecord(g.onDisk, next, next.num, lines)
	if err != nil {
		t.Fatal(err)
	}
	return next, gs.saveRecord(g.onDisk, next, rec)
}

// rowLines is the sorted multiset of a table's AppendRowJSON lines.
func rowLines(t *testing.T, tb *relstore.Table) []string {
	t.Helper()
	var out []string
	for _, r := range tb.Rows().Data {
		b, err := relstore.AppendRowJSON(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	slices.Sort(out)
	return out
}

// TestGenStoreSaveRecoverRoundTrip is the happy path: two clean saves, then
// recovery picks the newest generation and retires the older directory.
func TestGenStoreSaveRecoverRoundTrip(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewObserver().Metrics
	gs := newGenStore(etl.OSFS{}, root, func() *obs.Registry { return reg }, t.Logf)

	for n, rows := range map[int64]int{1: 4, 2: 5} {
		if err := gs.save(storeGen(t, n, rows), n); err != nil {
			t.Fatalf("save gen %d: %v", n, err)
		}
	}
	rec, err := gs.recover("warehouse_t")
	if err != nil || rec == nil {
		t.Fatalf("recover = %v, %v", rec, err)
	}
	if rec.state.Gen != 2 || rec.table.Len() != 5 {
		t.Errorf("recovered gen %d with %d rows, want gen 2 with 5", rec.state.Gen, rec.table.Len())
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
//
// The record cases persist a base (gen 1) and two clean records (gens 2
// and 3) over it, then the faulted generation 4: a third record, or for
// the compaction case a new base. A torn record is discarded with every
// later one, and recovery lands on the record before it.
func TestRecoveryFaultMatrix(t *testing.T) {
	cases := []struct {
		name          string
		chain         string           // "": base gen 2; "record": record gen 4; "compaction": base gen 4
		saveFaults    []faulty.FSFault // armed on the faulted generation's save
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
			// The failed save removed the gen-2 dir it had created, so
			// recovery finds nothing torn.
			wantGen: 1, wantRows: 4, wantTorn: 0,
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
		{
			name:       "short_write_tears_record",
			chain:      "record",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultShortWrite, Path: "patch-"}},
			wantGen:    3, wantRows: 5, wantTorn: 1,
		},
		{
			name:       "torn_rename_tears_record",
			chain:      "record",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultTornRename, Path: "patch-"}},
			wantGen:    3, wantRows: 5, wantTorn: 1,
		},
		{
			name:       "drop_sync_tears_record",
			chain:      "record",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultDropSync, Path: "patch-"}},
			wantGen:    3, wantRows: 5, wantTorn: 1,
		},
		{
			name:        "enospc_fails_record_loudly",
			chain:       "record",
			saveFaults:  []faulty.FSFault{{Kind: faulty.FaultENOSPC, Path: "patch-"}},
			wantSaveErr: true,
			wantGen:     3, wantRows: 5, wantTorn: 0,
		},
		{
			name:          "bit_flip_mid_chain_discards_later_records",
			chain:         "record",
			recoverFaults: []faulty.FSFault{{Kind: faulty.FaultBitFlip, Path: "patch-3"}},
			wantGen:       2, wantRows: 5, wantTorn: 2,
		},
		{
			name:       "compaction_torn_before_manifest",
			chain:      "compaction",
			saveFaults: []faulty.FSFault{{Kind: faulty.FaultTornRename, Path: "MANIFEST"}},
			wantGen:    3, wantRows: 5, wantTorn: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			reg := obs.NewObserver().Metrics
			metrics := func() *obs.Registry { return reg }

			// Gen 1 is always saved cleanly: the last known-good base.
			clean := newGenStore(etl.OSFS{}, root, metrics, t.Logf)
			g := storeGen(t, 1, 4)
			if err := clean.save(g, 1); err != nil {
				t.Fatalf("clean save: %v", err)
			}
			gens := map[int64]*generation{1: g}

			// The faulted generation is saved through the fault-injecting
			// FS. A silent fault reports success here — mimicking a crash
			// right after the write, before any GC could run.
			faultyStore := newGenStore(faulty.NewFS(etl.OSFS{}, tc.saveFaults...), root, metrics, t.Logf)
			var werr error
			switch tc.chain {
			case "":
				g2 := storeGen(t, 2, 5)
				gens[2] = g2
				werr = faultyStore.save(g2, 2)
			default:
				for _, step := range [][2]int{{-1, 4}, {0, 5}} {
					next, err := storeRecord(t, clean, g, step[0], step[1])
					if err != nil {
						t.Fatalf("clean record %d: %v", next.num, err)
					}
					g, gens[next.num] = next, next
				}
				if tc.chain == "record" {
					var g4 *generation
					g4, werr = storeRecord(t, faultyStore, g, 1, 6)
					gens[4] = g4
				} else {
					werr = faultyStore.save(&generation{num: 4, table: g.table.Clone(), partGens: g.partGens}, 4)
				}
			}
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
			rec, rerr := newGenStore(rfs, root, metrics, t.Logf).recover("warehouse_t")
			if rerr != nil || rec == nil {
				t.Fatalf("recover = %v, %v", rec, rerr)
			}
			if rec.state.Gen != tc.wantGen || rec.table.Len() != tc.wantRows {
				t.Errorf("recovered gen %d with %d rows, want gen %d with %d",
					rec.state.Gen, rec.table.Len(), tc.wantGen, tc.wantRows)
			}
			if want := gens[tc.wantGen]; want != nil && !slices.Equal(rowLines(t, rec.table), rowLines(t, want.table)) {
				t.Errorf("recovered rows %v, want generation %d's %v", rowLines(t, rec.table), tc.wantGen, rowLines(t, want.table))
			}
			if got := reg.Counter("serve.snapshot.torn").Value(); got != tc.wantTorn {
				t.Errorf("serve.snapshot.torn = %d, want %d", got, tc.wantTorn)
			}
			// Whatever recovery rejected must be gone from disk: a second
			// recovery over the same root sees only the chosen generation.
			var gone []string
			switch {
			case tc.chain == "" && tc.wantGen == 1:
				gone = []string{"gen-2"}
			case tc.chain == "compaction":
				gone = []string{"gen-4"}
			case tc.chain == "record":
				for n := tc.wantGen + 1; n <= 4; n++ {
					gone = append(gone, filepath.Join("gen-1", recordName(n)))
				}
			}
			for _, name := range gone {
				if _, err := os.Stat(filepath.Join(root, name)); !os.IsNotExist(err) {
					t.Errorf("rejected %s survived recovery: %v", name, err)
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

// TestDeltaAndFullRefreshPersistSameTable: three deployments start from one
// state and apply the same mutations; one refreshes by delta, one in full,
// and one is rebuilt from scratch over the mutated contributors. Every round
// all three hold the same rows, in canonical order, under the same digest.
// The delta and full routes persist as patch records over a base, or as a
// new base once the records outgrow it; whenever a route writes a base, its
// table.rel and MANIFEST digest match the rebuild's byte for byte. The last
// round forces both routes to compact.
func TestDeltaAndFullRefreshPersistSameTable(t *testing.T) {
	const seed, n, rounds = 7, 40, 4
	delta, full, rebuilt := deployWorkload(t, seed, n), deployWorkload(t, seed, n), deployWorkload(t, seed, n)
	routes := map[string]*workloadDeployment{"delta": delta, "full": full}
	tableFile := func(d *workloadDeployment) []byte {
		b, err := os.ReadFile(filepath.Join(d.st.cur.Load().dir, "table.rel"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for round := int64(0); round < rounds; round++ {
		batch := workload.RandomBatch(delta.contribs, 100+round, 30)
		for _, d := range []*workloadDeployment{delta, full, rebuilt} {
			if err := workload.Apply(d.contribs, batch); err != nil {
				t.Fatal(err)
			}
		}
		compact := round == rounds-1
		if compact {
			// The hook: no record fits within a quarter of an empty base.
			for _, d := range routes {
				d.st.cur.Load().baseBytes = 0
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
		want := rebuilt.st.cur.Load()
		for route, d := range routes {
			g := d.st.cur.Load()
			if g.digest != want.digest {
				t.Fatalf("round %d: %s refresh has digest %v, rebuild %v", round, route, g.digest, want.digest)
			}
			if !reflect.DeepEqual(g.table.Rows().Data, want.table.Rows().Data) {
				t.Fatalf("round %d: %s refresh holds other rows than the rebuild", round, route)
			}
			if g.dir != d.st.store.genDir(g.num) {
				if compact {
					t.Fatalf("round %d: %s refresh persisted in %s, want a new base", round, route, g.dir)
				}
				continue // a record
			}
			if !bytes.Equal(tableFile(d), tableFile(rebuilt)) {
				t.Errorf("round %d: %s route's base differs from a rebuild's table.rel", round, route)
			}
			if got, want := persistedManifest(t, d.st).Digest, persistedManifest(t, rebuilt.st).Digest; got != want {
				t.Errorf("round %d: %s route's MANIFEST has digest %s, the rebuild %s", round, route, got, want)
			}
		}
	}
	for route, d := range routes {
		if got := d.srv.metrics().Counter("serve.snapshot.records").Value(); got == 0 {
			t.Errorf("%s route persisted no record", route)
		}
	}
}

// TestRecoveryReordersShuffledTable recovers a base in the layout written
// before v1 rows became the only one: its table.rel is a v2 segment file,
// and its rows are out of canonical order, as in files written before
// generations were ordered. Recovery must serve the extracts of the
// canonical generation it was shuffled from. A data-changing delta tick
// must then append a patch record to that same v2 base, and a second
// restart must replay it to the same extracts again.
func TestRecoveryReordersShuffledTable(t *testing.T) {
	d := deployWorkload(t, 13, 40)
	r := rand.New(rand.NewSource(13))
	canonical := checkExtracts(t, r, d, "canonical")

	g := d.st.cur.Load()
	tablePath := filepath.Join(g.dir, "table.rel")
	firstByte := func() byte {
		b, err := os.ReadFile(tablePath)
		if err != nil || len(b) == 0 {
			t.Fatalf("read %s: %d bytes, %v", tablePath, len(b), err)
		}
		return b[0]
	}
	if c := firstByte(); c != '[' {
		t.Fatalf("a new base's table.rel starts with %q, want v1's '['", c)
	}

	// Rewrite the persisted generation in place as a v2 file of 16-row
	// segments, its rows shuffled.
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
	if err := os.WriteFile(tablePath, table.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(g.dir, "MANIFEST"), etl.Frame(genManifestVersion, append(payload, '\n')), 0o644); err != nil {
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

	if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, 131, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.srv.refresh(context.Background(), d.st, etl.DeltaRefresh, "test"); err != nil {
		t.Fatal(err)
	}
	next := d.st.cur.Load()
	if next.num <= rec.num || next.dir != g.dir {
		t.Fatalf("delta tick left generation %d in %q, want a later one in the v2 base %s", next.num, next.dir, g.dir)
	}
	if _, err := os.Stat(filepath.Join(g.dir, recordName(next.num))); err != nil {
		t.Fatalf("delta tick wrote no record over the v2 base: %v", err)
	}
	if c := firstByte(); c != '{' {
		t.Fatalf("the v2 base's table.rel now starts with %q; a record must leave it as it was", c)
	}
	ticked := checkExtracts(t, r, d, "after the delta tick")

	d.start(t)
	if got := d.srv.metrics().Counter("serve.snapshot.recovered").Value(); got != 1 {
		t.Fatalf("second restart: serve.snapshot.recovered = %d, want 1", got)
	}
	if got := d.st.cur.Load().num; got != next.num {
		t.Fatalf("second restart recovered generation %d, want %d", got, next.num)
	}
	for q, want := range ticked {
		params, _ := url.ParseQuery(q)
		if got := d.extract(t, params); !bytes.Equal(got, want) {
			t.Fatalf("extract %s after replaying the record over the v2 base\n got  %s\n want %s", q, got, want)
		}
	}
}

// TestFailedPersistLeavesOneDirectory: a persist that fails leaves nothing
// behind, and the next successful persist sweeps the last good directory
// the failure kept, so the store ends holding exactly the current
// generation's directory — and a restart recovers that generation.
func TestFailedPersistLeavesOneDirectory(t *testing.T) {
	dir := t.TempDir()
	ffs := faulty.NewFS(etl.OSFS{}, faulty.FSFault{Kind: faulty.FaultENOSPC, Path: "MANIFEST", After: 1})
	spec := fixtureSpec(t, goodHabits)
	srv := NewServer(Config{Observer: obs.NewObserver(), WarehouseDir: dir, FS: ffs, Logf: t.Logf})
	ctx := context.Background()
	if err := srv.AddStudy(ctx, spec); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.study("exsmoker")
	for i := int64(0); i < 4; i++ {
		submitSurgical(t, spec.Contributors[0], 500+i)
		if _, err := srv.refresh(ctx, st, etl.FullRefresh, "test"); err != nil {
			t.Fatal(err)
		}
	}
	if got := ffs.InjectedCount(faulty.FaultENOSPC); got != 1 {
		t.Fatalf("ENOSPC fired %d times, want 1", got)
	}
	if got := srv.metrics().Counter("serve.snapshot.persist.errors").Value(); got != 1 {
		t.Fatalf("serve.snapshot.persist.errors = %d, want 1", got)
	}
	if dirs := genDirs(t, filepath.Join(dir, "exsmoker")); !slices.Equal(dirs, []string{"gen-5"}) {
		t.Fatalf("generation dirs = %v, want [gen-5]", dirs)
	}

	srv2 := NewServer(Config{Observer: obs.NewObserver(), WarehouseDir: dir, Logf: t.Logf})
	if err := srv2.AddStudy(ctx, fixtureSpec(t, goodHabits)); err != nil {
		t.Fatal(err)
	}
	st2, _ := srv2.study("exsmoker")
	got, want := st2.cur.Load(), st.cur.Load()
	if got.num != want.num || !reflect.DeepEqual(got.table.Rows().Data, want.table.Rows().Data) {
		t.Errorf("recovered generation %d with %d rows, want generation %d with %d",
			got.num, got.table.Len(), want.num, want.table.Len())
	}
}

// genDirs lists the generation directories under a study's store.
func genDirs(t *testing.T, root string) []string {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range ents {
		dirs = append(dirs, e.Name())
	}
	return dirs
}

// recoverCopy starts a fresh server over a copy of d's warehouse directory,
// so recovery's deletions leave d's own store alone. The copy shares d's
// contributors; it is only read from, never refreshed.
func recoverCopy(t *testing.T, d *workloadDeployment) *workloadDeployment {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(d.dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(d.dir, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &workloadDeployment{contribs: d.contribs, spec: d.spec, dir: dst}
	c.start(t)
	return c
}

// sameGeneration requires rec's current generation to be want: the same
// number, cursors and partition generations, the same rows in canonical
// order, and the same digest.
func sameGeneration(t *testing.T, step string, rec *workloadDeployment, want *generation) {
	t.Helper()
	got := rec.st.cur.Load()
	switch {
	case got.num != want.num:
		t.Fatalf("%s: recovered generation %d, want %d", step, got.num, want.num)
	case !reflect.DeepEqual(got.cursors.Snapshot(), want.cursors.Snapshot()):
		t.Fatalf("%s: recovered cursors %v, want %v", step, got.cursors.Snapshot(), want.cursors.Snapshot())
	case !reflect.DeepEqual(got.partGens, want.partGens):
		t.Fatalf("%s: recovered partGens %v, want %v", step, got.partGens, want.partGens)
	case !reflect.DeepEqual(got.table.Rows().Data, want.table.Rows().Data):
		t.Fatalf("%s: recovered rows differ from the served ones", step)
	case got.digest != want.digest:
		t.Fatalf("%s: recovered digest %v, want %v", step, got.digest, want.digest)
	}
}

// TestRecoveredEqualsLastPersisted: recovered ≡ last persisted, through
// patch records and compactions. Mixed delta and full refreshes run over
// one deployment; after each, a fresh server recovers a copy of its
// warehouse directory and must hold the last persisted generation — the
// current one, or for a refresh that changed no row (which persists
// nothing, though it may advance the cursors) the one before — and serve
// the same extract bytes.
func TestRecoveredEqualsLastPersisted(t *testing.T) {
	d := deployWorkload(t, 19, 40)
	r := rand.New(rand.NewSource(19))
	bases := map[string]bool{}
	persisted := d.st.cur.Load()
	for i := 0; i < 12; i++ {
		mode, kind := etl.DeltaRefresh, "delta"
		if i%4 == 3 {
			mode, kind = etl.FullRefresh, "full"
		}
		step := fmt.Sprintf("step %d (%s)", i, kind)
		if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, r.Int63(), 1+r.Intn(8))); err != nil {
			t.Fatal(err)
		}
		stats, err := d.srv.refresh(context.Background(), d.st, mode, "test")
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if stats.Changed() {
			persisted = d.st.cur.Load()
		}
		bases[persisted.dir] = true
		bodies := checkExtracts(t, r, d, step)
		rec := recoverCopy(t, d)
		sameGeneration(t, step, rec, persisted)
		for q, want := range bodies {
			params, _ := url.ParseQuery(q)
			if got := rec.extract(t, params); !bytes.Equal(got, want) {
				t.Fatalf("%s: recovered extract %s\n got  %s\n want %s", step, q, got, want)
			}
		}
	}
	if got := d.srv.metrics().Counter("serve.snapshot.records").Value(); got == 0 || len(bases) < 3 {
		t.Fatalf("%d records over %d bases: the run must cover records and at least one compaction", got, len(bases))
	}
}

// TestFailedRecordNextPersistWritesBase: a record write that fails loudly
// leaves the generation unpersisted; recovery lands on the last durable
// generation, and the next persist writes a new base rather than a record
// after the failed one.
func TestFailedRecordNextPersistWritesBase(t *testing.T) {
	d := deployWorkload(t, 23, 40)
	ffs := faulty.NewFS(etl.OSFS{}, faulty.FSFault{Kind: faulty.FaultENOSPC, Path: "patch-", After: 1})
	d.srv = NewServer(Config{Observer: obs.NewObserver(), WarehouseDir: d.dir, FS: ffs, Logf: t.Logf})
	if err := d.srv.AddStudy(context.Background(), d.spec); err != nil {
		t.Fatal(err)
	}
	d.st, _ = d.srv.study(d.spec.Name)
	tick := func(seed int64) *generation {
		t.Helper()
		if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, seed, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.srv.refresh(context.Background(), d.st, etl.DeltaRefresh, "test"); err != nil {
			t.Fatal(err)
		}
		return d.st.cur.Load()
	}
	durable := tick(1)
	if durable.dir != d.st.store.genDir(1) || durable.num != 2 {
		t.Fatalf("first tick: generation %d in %q, want a record over gen-1", durable.num, durable.dir)
	}
	if failed := tick(2); failed.dir != "" || ffs.InjectedCount(faulty.FaultENOSPC) != 1 {
		t.Fatalf("second tick: generation %d persisted in %q despite ENOSPC", failed.num, failed.dir)
	}
	rec := recoverCopy(t, d)
	if got := rec.st.cur.Load(); got.num != durable.num || !reflect.DeepEqual(got.table.Rows().Data, durable.table.Rows().Data) {
		t.Fatalf("recovered generation %d, want the last durable %d", got.num, durable.num)
	}
	next := tick(3)
	if next.dir != d.st.store.genDir(next.num) {
		t.Fatalf("after a failed record, generation %d persisted in %q, want a new base", next.num, next.dir)
	}
	if dirs := genDirs(t, filepath.Join(d.dir, d.spec.Name)); !slices.Equal(dirs, []string{filepath.Base(next.dir)}) {
		t.Errorf("generation dirs = %v, want only %s", dirs, filepath.Base(next.dir))
	}
	sameGeneration(t, "after the base", recoverCopy(t, d), next)
}

// TestRecoveryRejectsDigestMismatch: a record that passes its checksum but
// replays to rows its digest does not describe — a replay bug, or a record
// built from the wrong patch — tears its whole directory, which recovery
// handles like a torn base: it falls back to the older base, here one a
// crash mid-compaction left behind, plus its records.
func TestRecoveryRejectsDigestMismatch(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewObserver().Metrics
	gs := newGenStore(etl.OSFS{}, root, func() *obs.Registry { return reg }, t.Logf)
	g1 := storeGen(t, 1, 4)
	if err := gs.save(g1, 1); err != nil {
		t.Fatal(err)
	}
	g2, err := storeRecord(t, gs, g1, -1, 4)
	if err != nil {
		t.Fatal(err)
	}
	g3 := &generation{num: 3, table: g2.table.Clone(), partGens: g2.partGens}
	if err := gs.save(g3, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := storeRecord(t, gs, g3, 0, 5); err != nil {
		t.Fatal(err)
	}

	// Record 4 inserts key 6 in place of key 5, under a fresh checksum.
	path := filepath.Join(g3.dir, recordName(4))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := etl.Unframe(b, patchVersion, "record")
	if err != nil {
		t.Fatal(err)
	}
	line := func(key int) []byte {
		l, err := relstore.AppendRowJSON(nil, storeRow(key))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if !bytes.Contains(payload, line(5)) {
		t.Fatal("record 4 does not insert key 5")
	}
	if err := os.WriteFile(path, etl.Frame(patchVersion, bytes.Replace(payload, line(5), line(6), 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := gs.recover("warehouse_t")
	if err != nil || rec == nil {
		t.Fatalf("recover = %v, %v", rec, err)
	}
	if rec.state.Gen != 2 || !slices.Equal(rowLines(t, rec.table), rowLines(t, g2.table)) {
		t.Errorf("recovered generation %d with rows %v, want generation 2's %v", rec.state.Gen, rowLines(t, rec.table), rowLines(t, g2.table))
	}
	if got := reg.Counter("serve.snapshot.torn").Value(); got != 1 {
		t.Errorf("serve.snapshot.torn = %d, want 1", got)
	}
	if _, err := os.Stat(g3.dir); !os.IsNotExist(err) {
		t.Errorf("the mismatching directory survived recovery: %v", err)
	}
}

// TestRecoveryReadsManifestWithoutDigest: a base written before patch
// records existed — its MANIFEST carries no digest, and no record follows
// it — recovers as it always did, and the recovered generation gets its
// digest computed from its rows.
func TestRecoveryReadsManifestWithoutDigest(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewObserver().Metrics
	gs := newGenStore(etl.OSFS{}, root, func() *obs.Registry { return reg }, t.Logf)
	g := storeGen(t, 3, 5)
	if err := gs.save(g, 7); err != nil {
		t.Fatal(err)
	}
	man, _, err := gs.loadGen(g.dir)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(map[string]any{
		"gen": man.Gen, "table": man.Table, "tableSha256": man.TableSHA, "rows": man.Rows,
		"refreshes": man.Refreshes, "partGens": man.PartGens, "stats": man.Stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(g.dir, "MANIFEST"), etl.Frame(genManifestVersion, append(old, '\n')), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := gs.recover("warehouse_t")
	if err != nil || rec == nil {
		t.Fatalf("recover = %v, %v", rec, err)
	}
	if rec.state.Gen != 3 || rec.state.Digest != "" || rec.state.Refreshes != 7 || rec.digest != g.digest {
		t.Errorf("recovered generation %d (manifest digest %q, %d refreshes) with digest %v, want generation 3, no manifest digest, 7 refreshes and digest %v",
			rec.state.Gen, rec.state.Digest, rec.state.Refreshes, rec.digest, g.digest)
	}
	if got := reg.Counter("serve.snapshot.torn").Value(); got != 0 {
		t.Errorf("serve.snapshot.torn = %d, want 0", got)
	}
}

// TestSnapshotGCUnderPinnedReadersWithRecords is the GC invariant where
// generations share base directories: readers pin generations while delta
// ticks persist patch records and compactions retire bases. A pinned
// generation's base directory must exist for as long as the pin, and once
// the dust settles only the current base directory remains.
func TestSnapshotGCUnderPinnedReadersWithRecords(t *testing.T) {
	d := deployWorkload(t, 31, 40)
	const (
		readers = 6
		reads   = 60
		ticks   = 12
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < ticks; i++ {
			if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, 700+i, 3)); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
			if _, err := d.srv.refresh(context.Background(), d.st, etl.DeltaRefresh, "stress"); err != nil {
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
				g := d.st.pin()
				if g == nil {
					t.Error("pin = nil on a ready study")
					return
				}
				if _, err := os.Stat(filepath.Join(g.dir, "MANIFEST")); err != nil {
					t.Errorf("pinned generation %d lost its base: %v", g.num, err)
				}
				g.unpin()
			}
		}()
	}
	wg.Wait()

	if d.srv.metrics().Counter("serve.snapshot.records").Value() == 0 {
		t.Fatal("no tick persisted a record")
	}
	cur := d.st.cur.Load()
	if dirs := genDirs(t, filepath.Join(d.dir, d.spec.Name)); !slices.Equal(dirs, []string{filepath.Base(cur.dir)}) {
		t.Errorf("generation dirs after GC = %v, want [%s]", dirs, filepath.Base(cur.dir))
	}
}
