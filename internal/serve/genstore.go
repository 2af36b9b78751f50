package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
)

// genStore is one study's crash-consistent generation store:
//
//	<WarehouseDir>/<study>/gen-<N>/table.rel   v2 segment file (CRC per segment)
//	<WarehouseDir>/<study>/gen-<N>/MANIFEST    checksummed metadata, written last
//
// The write protocol makes "complete" a single-file property: table.rel is
// written first (temp+fsync+rename), then the MANIFEST — which carries the
// table's SHA-256 — is written the same way. A generation directory without
// a valid MANIFEST, or whose table fails its recorded checksum, is torn by
// definition; a crash at any point leaves either a complete generation or
// a detectably-incomplete one, never a plausible half-write. Startup
// recovery walks gen-<N> dirs newest-first, serves the first complete one,
// and deletes the rest.
const genManifestVersion = "guava-gen v1"

// genManifest is the MANIFEST payload (JSON, checksummed by the header).
type genManifest struct {
	Gen       int64            `json:"gen"`
	Table     string           `json:"table"`
	TableSHA  string           `json:"tableSha256"`
	Rows      int              `json:"rows"`
	Refreshes int64            `json:"refreshes"`
	Cursors   map[string]int64 `json:"cursors,omitempty"`
	PartGens  map[string]int64 `json:"partGens,omitempty"`
	Stats     etl.RefreshStats `json:"stats"`
}

type genStore struct {
	fs      etl.FS
	root    string // <WarehouseDir>/<study>
	segRows int
	metrics func() *obs.Registry
	logf    func(format string, args ...any)
}

func newGenStore(fsys etl.FS, root string, segRows int, metrics func() *obs.Registry, logf func(string, ...any)) *genStore {
	if fsys == nil {
		fsys = etl.OSFS{}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &genStore{fs: fsys, root: root, segRows: segRows, metrics: metrics, logf: logf}
}

func (gs *genStore) genDir(num int64) string {
	return filepath.Join(gs.root, fmt.Sprintf("gen-%d", num))
}

// save persists g (table first, MANIFEST last) and sets g.dir on success.
func (gs *genStore) save(g *generation, refreshes int64) error {
	dir := gs.genDir(g.num)
	var buf bytes.Buffer
	if err := g.table.WriteTypedSegmented(&buf, gs.segRows); err != nil {
		return err
	}
	if err := etl.WriteFileAtomic(gs.fs, filepath.Join(dir, "table.rel"), buf.Bytes()); err != nil {
		return err
	}
	tableSum := sha256.Sum256(buf.Bytes())
	man := genManifest{
		Gen:       g.num,
		Table:     "table.rel",
		TableSHA:  hex.EncodeToString(tableSum[:]),
		Rows:      g.table.Len(),
		Refreshes: refreshes,
		PartGens:  g.partGens,
		Stats:     g.stats,
	}
	if g.cursors != nil {
		man.Cursors = g.cursors.Snapshot()
	}
	payload, err := json.Marshal(man)
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	sum := sha256.Sum256(payload)
	content := genManifestVersion + "\nsha256 " + hex.EncodeToString(sum[:]) + "\n" + string(payload)
	if err := etl.WriteFileAtomic(gs.fs, filepath.Join(dir, "MANIFEST"), []byte(content)); err != nil {
		return err
	}
	g.dir = dir
	return nil
}

// loadGen reads and fully validates one generation directory: MANIFEST
// header + checksum, then the table file against the manifest's SHA-256
// and row count. Any failure means the directory is torn.
func (gs *genStore) loadGen(dir string) (*genManifest, *relstore.Rows, error) {
	b, err := gs.fs.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		return nil, nil, fmt.Errorf("manifest unreadable: %w", err)
	}
	rest, ok := strings.CutPrefix(string(b), genManifestVersion+"\n")
	if !ok {
		return nil, nil, fmt.Errorf("manifest has bad or missing header")
	}
	sumLine, payload, ok := strings.Cut(rest, "\n")
	wantSum, ok2 := strings.CutPrefix(sumLine, "sha256 ")
	if !ok || !ok2 {
		return nil, nil, fmt.Errorf("manifest missing checksum line")
	}
	sum := sha256.Sum256([]byte(payload))
	if hex.EncodeToString(sum[:]) != wantSum {
		return nil, nil, fmt.Errorf("manifest checksum mismatch (torn or corrupted write)")
	}
	var man genManifest
	if err := json.Unmarshal([]byte(payload), &man); err != nil {
		return nil, nil, fmt.Errorf("manifest payload: %w", err)
	}
	tb, err := gs.fs.ReadFile(filepath.Join(dir, man.Table))
	if err != nil {
		return nil, nil, fmt.Errorf("table unreadable: %w", err)
	}
	tableSum := sha256.Sum256(tb)
	if hex.EncodeToString(tableSum[:]) != man.TableSHA {
		return nil, nil, fmt.Errorf("table checksum mismatch (torn or corrupted write)")
	}
	rows, err := relstore.ReadTyped(bytes.NewReader(tb))
	if err != nil {
		return nil, nil, fmt.Errorf("table parse: %w", err)
	}
	if len(rows.Data) != man.Rows {
		return nil, nil, fmt.Errorf("table has %d rows, manifest says %d", len(rows.Data), man.Rows)
	}
	return &man, rows, nil
}

// recoveredGen is one successfully recovered generation.
type recoveredGen struct {
	man  *genManifest
	rows *relstore.Rows
	dir  string
}

// recover walks the store newest-first and returns the newest complete
// generation, or nil when none exists. Torn directories are counted,
// logged, and deleted; older complete directories are deleted too — once
// a generation is chosen, nothing else on disk is ever needed.
func (gs *genStore) recover() (*recoveredGen, error) {
	ents, err := gs.fs.ReadDir(gs.root)
	if err != nil {
		return nil, nil // no store yet: a fresh study
	}
	type cand struct {
		num int64
		dir string
	}
	var cands []cand
	for _, e := range ents {
		rest, ok := strings.CutPrefix(e.Name(), "gen-")
		if !ok || !e.IsDir() {
			continue
		}
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			continue
		}
		cands = append(cands, cand{num: n, dir: filepath.Join(gs.root, e.Name())})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].num > cands[j].num })
	var chosen *recoveredGen
	for _, c := range cands {
		if chosen != nil {
			// Older than the recovered generation: retire it.
			gs.metrics().Counter("serve.snapshot.gc").Inc()
			_ = gs.fs.RemoveAll(c.dir)
			continue
		}
		man, rows, lerr := gs.loadGen(c.dir)
		if lerr != nil {
			gs.metrics().Counter("serve.snapshot.torn").Inc()
			gs.logf("serve: discarded torn generation %d at %s: %v", c.num, c.dir, lerr)
			_ = gs.fs.RemoveAll(c.dir)
			continue
		}
		chosen = &recoveredGen{man: man, rows: rows, dir: c.dir}
	}
	if chosen != nil {
		gs.metrics().Counter("serve.snapshot.recovered").Inc()
	}
	return chosen, nil
}

// removeGen deletes one retired generation directory.
func (gs *genStore) removeGen(dir string) {
	gs.metrics().Counter("serve.snapshot.gc").Inc()
	_ = gs.fs.RemoveAll(dir)
}

// discardAll wipes the study's store — used when recovered state no longer
// matches the study's schema.
func (gs *genStore) discardAll() {
	_ = gs.fs.RemoveAll(gs.root)
}
