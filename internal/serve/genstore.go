package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
)

// genStore is one study's crash-consistent generation store:
//
//	<WarehouseDir>/<study>/gen-<B>/table.rel   v1 typed rows: a schema line, then one row line each
//	<WarehouseDir>/<study>/gen-<B>/MANIFEST    checksummed metadata, written last
//	<WarehouseDir>/<study>/gen-<B>/patch-<N>   checksummed patch record of generation N > B
//
// A base — table.rel plus MANIFEST — holds every row of generation B. The
// write protocol makes "complete" a single-file property: table.rel is
// written first (temp+fsync+rename), then the MANIFEST — which carries the
// table's SHA-256 and row count, so it checks every byte of table.rel — is
// written the same way. The MANIFEST and the records share etl.Frame's
// checksummed framing. Bases written before v1 became the only layout
// hold a v2 segment file, which relstore.ReadTyped still reads. A
// directory without a valid MANIFEST, or whose table fails its recorded
// checksum, is torn by definition; a crash at any point leaves either a
// complete base or a detectably incomplete one, never a plausible
// half-write.
//
// A data-changing refresh whose predecessor is durable writes no base: it
// writes one record, patch-<N>, into its predecessor's base directory, with
// the same temp+fsync+rename discipline. The record holds what the refresh
// changed — the removed (EntityKey, Contributor) groups and the inserted
// rows — plus the generation's metadata and its rowDigest. Records over a
// base are numbered B+1, B+2, … without a gap. Once they would total more
// than 1/compactShare of the base's table.rel bytes, or when the previous
// persist failed, the next persist writes a new base instead.
//
// Startup recovery walks gen-<B> dirs newest-first. For the first complete
// base it replays patch-(B+1), patch-(B+2), … up to the first missing or
// torn record, discards that record and every later one, and checks the
// replayed rows against the last applied digest; a mismatch tears the whole
// directory. It serves the first directory that passes and deletes the
// rest.
const (
	genManifestVersion = "guava-gen v1"
	patchVersion       = "guava-patch v1"

	// compactShare bounds the records over one base: they may total at
	// most 1/compactShare of the base's table.rel bytes.
	compactShare = 4
)

// genState is what a persisted generation records besides its rows, in a
// base's MANIFEST and at the head of each patch record.
type genState struct {
	Gen       int64            `json:"gen"`
	Refreshes int64            `json:"refreshes"`
	Cursors   map[string]int64 `json:"cursors,omitempty"`
	PartGens  map[string]int64 `json:"partGens,omitempty"`
	Stats     etl.RefreshStats `json:"stats"`
	// Digest is the rowDigest of the generation's rows. MANIFESTs written
	// before patch records existed carry none.
	Digest string `json:"digest,omitempty"`
}

// genManifest is the MANIFEST payload (JSON, checksummed by the framing).
type genManifest struct {
	genState
	Table    string `json:"table"`
	TableSHA string `json:"tableSha256"`
	Rows     int    `json:"rows"`

	tableBytes int64 // the size of the table file loadGen read
}

// patchHeader is a record's first payload line. Removed group lines, then
// Inserted row lines, follow it.
type patchHeader struct {
	genState
	Base     int64 `json:"base"`
	Removed  int   `json:"removed"`
	Inserted int   `json:"inserted"`
}

// onDisk says where a generation is durable: the base directory it was
// persisted in ("" when it was not), that base's generation and table.rel
// size, and the bytes of the records written over the base up to and
// including this generation's.
type onDisk struct {
	dir       string
	base      int64
	baseBytes int64
	logBytes  int64
}

type genStore struct {
	fs      etl.FS
	root    string // <WarehouseDir>/<study>
	metrics func() *obs.Registry
	logf    func(format string, args ...any)
}

func newGenStore(fsys etl.FS, root string, metrics func() *obs.Registry, logf func(string, ...any)) *genStore {
	if fsys == nil {
		fsys = etl.OSFS{}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &genStore{fs: fsys, root: root, metrics: metrics, logf: logf}
}

func (gs *genStore) genDir(num int64) string {
	return filepath.Join(gs.root, fmt.Sprintf("gen-%d", num))
}

// state is the metadata g persists under.
func (g *generation) state(refreshes int64) genState {
	st := genState{Gen: g.num, Refreshes: refreshes, PartGens: g.partGens, Stats: g.stats}
	if g.cursors != nil {
		st.Cursors = g.cursors.Snapshot()
	}
	st.Digest = g.digest.String()
	return st
}

// save persists g as a full base, gen-<num>: table first, MANIFEST last. On
// success g is durable there with no records; a failed save removes the
// directory it created, so it leaves nothing behind.
func (gs *genStore) save(g *generation, refreshes int64) error {
	dir := gs.genDir(g.num)
	n, err := gs.writeBase(dir, g, refreshes)
	if err != nil {
		_ = gs.fs.RemoveAll(dir)
		return err
	}
	g.onDisk = onDisk{dir: dir, base: g.num, baseBytes: n}
	return nil
}

// writeBase writes g's table.rel and MANIFEST into dir and returns the
// table's size. It computes g's digest from the table.
func (gs *genStore) writeBase(dir string, g *generation, refreshes int64) (int64, error) {
	var err error
	if g.digest, err = tableDigest(g.table); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := relstore.WriteTyped(&buf, g.table.Rows()); err != nil {
		return 0, err
	}
	if err := etl.WriteFileAtomic(gs.fs, filepath.Join(dir, "table.rel"), buf.Bytes()); err != nil {
		return 0, err
	}
	tableSum := sha256.Sum256(buf.Bytes())
	man := genManifest{
		genState: g.state(refreshes),
		Table:    "table.rel",
		TableSHA: hex.EncodeToString(tableSum[:]),
		Rows:     g.table.Len(),
	}
	payload, err := json.Marshal(man)
	if err != nil {
		return 0, err
	}
	payload = append(payload, '\n')
	if err := etl.WriteFileAtomic(gs.fs, filepath.Join(dir, "MANIFEST"), etl.Frame(genManifestVersion, payload)); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// patchLines is one refresh's patch rendered as record lines: a group line
// — the 2-cell row (EntityKey, Contributor) — per removed group, then a
// line per inserted row, each newline-terminated.
type patchLines struct {
	body              []byte
	removed, inserted int
}

// renderPatch renders report's patch and moves d by it: each removed row's
// line comes out of the digest, each inserted row's goes in. Removed rows
// arrive group by group (see etl.RefreshReport), so a group line is
// written where a row's group differs from the previous row's.
func renderPatch(report *etl.RefreshReport, d *rowDigest) (patchLines, error) {
	var p patchLines
	var line, group, prev []byte
	var err error
	for _, r := range report.Removed {
		if line, err = relstore.AppendRowJSON(line[:0], r); err != nil {
			return patchLines{}, err
		}
		d.sub(line)
		if group, err = relstore.AppendRowJSON(group[:0], r[:2]); err != nil {
			return patchLines{}, err
		}
		if p.removed == 0 || !bytes.Equal(group, prev) {
			p.body = append(append(p.body, group...), '\n')
			prev = append(prev[:0], group...)
			p.removed++
		}
	}
	for _, r := range report.Inserted {
		start := len(p.body)
		if p.body, err = relstore.AppendRowJSON(p.body, r); err != nil {
			return patchLines{}, err
		}
		d.add(p.body[start:])
		p.body = append(p.body, '\n')
		p.inserted++
	}
	return p, nil
}

// encodeRecord renders g's patch record over the base at: the framed header
// line and the patch lines.
func encodeRecord(at onDisk, g *generation, refreshes int64, p patchLines) ([]byte, error) {
	head, err := json.Marshal(patchHeader{genState: g.state(refreshes), Base: at.base, Removed: p.removed, Inserted: p.inserted})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 0, len(head)+1+len(p.body))
	payload = append(append(append(payload, head...), '\n'), p.body...)
	return etl.Frame(patchVersion, payload), nil
}

func recordName(num int64) string { return fmt.Sprintf("patch-%d", num) }

// saveRecord persists g as record rec in the base directory at. On success
// g is durable there, its record bytes counted in logBytes.
func (gs *genStore) saveRecord(at onDisk, g *generation, rec []byte) error {
	if err := etl.WriteFileAtomic(gs.fs, filepath.Join(at.dir, recordName(g.num)), rec); err != nil {
		return err
	}
	at.logBytes += int64(len(rec))
	g.onDisk = at
	return nil
}

// loadGen reads and fully validates one base: MANIFEST framing and
// checksum, then the table file against the manifest's SHA-256 and row
// count. Any failure means the directory is torn.
func (gs *genStore) loadGen(dir string) (*genManifest, *relstore.Rows, error) {
	b, err := gs.fs.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		return nil, nil, fmt.Errorf("manifest unreadable: %w", err)
	}
	payload, err := etl.Unframe(b, genManifestVersion, "manifest")
	if err != nil {
		return nil, nil, err
	}
	var man genManifest
	if err := json.Unmarshal(payload, &man); err != nil {
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
	man.tableBytes = int64(len(tb))
	return &man, rows, nil
}

// applyRecord reads record num over rec's base and replays it on rec's
// table through etl.ApplyPatch, the writes the refresh made; rec then
// holds the record's state. Any failure means the record is torn, and
// leaves the table as it was.
func (gs *genStore) applyRecord(rec *recoveredGen, num int64) error {
	b, err := gs.fs.ReadFile(filepath.Join(rec.disk.dir, recordName(num)))
	if err != nil {
		return err
	}
	payload, err := etl.Unframe(b, patchVersion, "record")
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSuffix(payload, []byte("\n")), []byte("\n"))
	var head patchHeader
	if err := json.Unmarshal(lines[0], &head); err != nil {
		return fmt.Errorf("record header: %w", err)
	}
	if head.Gen != num || head.Base != rec.disk.base {
		return fmt.Errorf("record is generation %d over base %d, want %d over %d", head.Gen, head.Base, num, rec.disk.base)
	}
	lines = lines[1:]
	if head.Removed < 0 || head.Inserted < 0 || head.Removed+head.Inserted != len(lines) {
		return fmt.Errorf("record has %d lines, header says %d removed and %d inserted", len(lines), head.Removed, head.Inserted)
	}
	rows := make([]relstore.Row, len(lines))
	for i, l := range lines {
		if rows[i], err = relstore.UnmarshalRowJSON(l); err != nil {
			return err
		}
	}
	if err := etl.ApplyPatch(rec.table, rows[:head.Removed], rows[head.Removed:]); err != nil {
		return err
	}
	rec.state = head.genState
	rec.disk.logBytes += int64(len(b))
	return nil
}

// recoveredGen is one successfully recovered generation: its table, with
// the Contributor and EntityKey indexes, in the order replay left it, and
// the state of the last record applied (or of the base).
type recoveredGen struct {
	state  genState
	table  *relstore.Table
	disk   onDisk
	digest rowDigest
}

// recover walks the store newest-first and returns the newest generation
// it can rebuild, as a table named tableName, or nil when none exists.
// Torn directories are counted, logged, and deleted; older complete
// directories are deleted too — once a generation is chosen, nothing else
// on disk is ever needed.
func (gs *genStore) recover(tableName string) (*recoveredGen, error) {
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
		rec, lerr := gs.replay(c.dir, tableName)
		if lerr != nil {
			gs.metrics().Counter("serve.snapshot.torn").Inc()
			gs.logf("serve: discarded torn generation %d at %s: %v", c.num, c.dir, lerr)
			_ = gs.fs.RemoveAll(c.dir)
			continue
		}
		chosen = rec
	}
	if chosen != nil {
		gs.metrics().Counter("serve.snapshot.recovered").Inc()
	}
	return chosen, nil
}

// replay rebuilds the newest generation one base directory holds: the base
// table, then each record in order through etl.ApplyPatch — the writes the
// refresh made — up to the first missing or torn record, which is deleted
// with every later one. The replayed rows must then match the last applied
// digest, when there is one; otherwise the directory is torn.
func (gs *genStore) replay(dir, tableName string) (*recoveredGen, error) {
	man, rows, err := gs.loadGen(dir)
	if err != nil {
		return nil, err
	}
	table := relstore.NewTable(tableName, rows.Schema)
	if err := table.InsertAll(rows.Data); err != nil {
		return nil, fmt.Errorf("table load: %w", err)
	}
	// The indexes a delta's clone carries: each record's Delete probes the
	// EntityKey buckets of its groups instead of testing every row of a
	// contributor.
	_ = table.CreateIndex(etl.ContributorColumn)
	_ = table.CreateIndex(etl.EntityKeyColumn)
	rec := &recoveredGen{
		state: man.genState,
		table: table,
		disk:  onDisk{dir: dir, base: man.Gen, baseBytes: man.tableBytes},
	}

	// Records, and the temp files of record writes a crash cut short.
	ents, err := gs.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var records []int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".patch-") {
			_ = gs.fs.Remove(filepath.Join(dir, e.Name()))
		} else if rest, ok := strings.CutPrefix(e.Name(), "patch-"); ok {
			if n, err := strconv.ParseInt(rest, 10, 64); err == nil {
				records = append(records, n)
			}
		}
	}
	slices.Sort(records)
	next := man.Gen + 1
	for _, n := range records {
		err := fmt.Errorf("record %d before it is missing or torn", next)
		if n == next {
			err = gs.applyRecord(rec, n)
		}
		if err == nil {
			next++
			continue
		}
		gs.metrics().Counter("serve.snapshot.torn").Inc()
		gs.logf("serve: discarded torn patch record %d at %s: %v", n, dir, err)
		_ = gs.fs.Remove(filepath.Join(dir, recordName(n)))
	}

	rec.digest, err = tableDigest(table)
	if err != nil {
		return nil, err
	}
	if rec.state.Digest != "" && rec.state.Digest != rec.digest.String() {
		return nil, errors.New("replayed rows do not match the recorded digest")
	}
	return rec, nil
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
