package etl

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"guava/internal/relstore"
)

// This file implements durable run state for the ETL engine: a completed
// step's output relations are snapshotted under a deterministic workflow
// fingerprint, so a killed or crashed study run resumes from the last
// durable step instead of re-executing the whole three-stage workflow.
// The store is pluggable (in-memory for tests, filesystem for real runs);
// Execute consumes it through RunPolicy.Checkpoint.

// TableSnapshot is one materialized table of a step snapshot.
type TableSnapshot struct {
	Ref  TableRef
	Rows *relstore.Rows
}

// Snapshot is the durable record of one completed step: every table the
// step wrote, plus the rows it quarantined while running (so a resumed
// run's dead-letter relation matches an uninterrupted one).
type Snapshot struct {
	Step        string
	Tables      []TableSnapshot
	Quarantined []QuarantineEntry
}

// ErrCorruptCheckpoint wraps every torn-write or bit-rot detection: a
// checkpoint that fails its checksum, is truncated, or does not parse. The
// engine treats such a Load as a miss (with a warning span) and re-runs the
// step rather than loading garbage.
var ErrCorruptCheckpoint = errors.New("etl: corrupt checkpoint")

// Checkpointer durably stores and retrieves step snapshots keyed by
// (workflow fingerprint, step ID). Implementations must be safe for
// concurrent use: parallel workers save independent steps simultaneously.
type Checkpointer interface {
	// Load returns the snapshot for the step, or (nil, nil) on a clean
	// miss. A non-nil error means the stored state is unreadable or
	// corrupt; callers re-run the step.
	Load(fingerprint, stepID string) (*Snapshot, error)
	// Save durably stores the snapshot, replacing any previous one.
	Save(fingerprint, stepID string, snap *Snapshot) error
	// Clear discards every snapshot stored under the fingerprint — a
	// caller that wants a fresh run rather than a resume.
	Clear(fingerprint string) error
}

// Fingerprint deterministically identifies the workflow's compiled plan:
// its name (the study), every step ID (which carries the contributor), each
// component's kind and rendered definition, and the dependency edges. Two
// runs share checkpoints exactly when their fingerprints match, so any
// change to the plan — a classifier edit, a contributor added — safely
// invalidates prior checkpoints.
func (w *Workflow) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, "workflow\x00"+w.Name+"\x00")
	for _, s := range w.Steps {
		io.WriteString(h, "step\x00"+s.ID+"\x00"+s.Component.Name()+"\x00"+s.Component.Describe()+"\x00")
		for _, d := range s.DependsOn {
			io.WriteString(h, "dep\x00"+d+"\x00")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scopedKey derives a key-scoped run's checkpoint key from the plan's: a
// digest of the scope — every contributor's keys, order-independent —
// joins it, so scoped and full runs, and runs over different key sets,
// never share checkpoints.
func scopedKey(base string, scope map[string][]relstore.Value) string {
	names := make([]string, 0, len(scope))
	for name := range scope {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	io.WriteString(h, "scope\x00"+base+"\x00")
	for _, name := range names {
		keys := make([]string, len(scope[name]))
		for i, k := range scope[name] {
			keys[i] = k.Key()
		}
		sort.Strings(keys)
		io.WriteString(h, "contributor\x00"+name+"\x00"+strings.Join(keys, "\x1f")+"\x00")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// restoreSnapshot materializes a snapshot's tables into the execution
// context — the restore half of checkpoint/restore.
func restoreSnapshot(env *Context, snap *Snapshot) error {
	for _, ts := range snap.Tables {
		if err := ts.Ref.write(env, ts.Rows); err != nil {
			return fmt.Errorf("etl: restore %s: %w", ts.Ref, err)
		}
	}
	return nil
}

// MemCheckpointer is an in-memory Checkpointer: process-local, so it
// survives a simulated crash (an aborted Execute) but not a real one. It is
// the store the crash-resume tests and single-process callers use.
type MemCheckpointer struct {
	mu    sync.Mutex
	snaps map[string]map[string]*Snapshot
}

// NewMemCheckpointer creates an empty in-memory store.
func NewMemCheckpointer() *MemCheckpointer {
	return &MemCheckpointer{snaps: make(map[string]map[string]*Snapshot)}
}

// Load implements Checkpointer.
func (m *MemCheckpointer) Load(fingerprint, stepID string) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := m.snaps[fingerprint][stepID]
	return snap, nil
}

// Save implements Checkpointer.
func (m *MemCheckpointer) Save(fingerprint, stepID string, snap *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snaps[fingerprint] == nil {
		m.snaps[fingerprint] = make(map[string]*Snapshot)
	}
	m.snaps[fingerprint][stepID] = snap
	return nil
}

// Clear implements Checkpointer.
func (m *MemCheckpointer) Clear(fingerprint string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.snaps, fingerprint)
	return nil
}

// Len reports how many snapshots are stored under the fingerprint.
func (m *MemCheckpointer) Len(fingerprint string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.snaps[fingerprint])
}

// FSCheckpointer stores snapshots as files under Dir, one directory per
// fingerprint and one file per step:
//
//	<dir>/<fingerprint>/<url-escaped step ID>.ckpt
//
// Each file is a line-oriented text format (see CheckpointVersion): a magic
// header, a SHA-256 checksum of the payload, then per-table sections using
// relstore's typed relation serialization. Writes go to a temp file that is
// fsynced and renamed into place, so a crash mid-save leaves either the old
// checkpoint or a stray temp file — never a half-written .ckpt under the
// live name. A torn or bit-flipped file fails its checksum on Load and is
// reported as ErrCorruptCheckpoint.
type FSCheckpointer struct {
	// Dir is the checkpoint root directory; created on first Save.
	Dir string
	// FS is the filesystem the store writes through; nil uses the real
	// one. Tests thread a faulty.FS here to exercise torn saves.
	FS FS
}

// CheckpointVersion is the on-disk format version; bump it when the file
// layout changes so stale checkpoints read as corrupt rather than garbage.
const CheckpointVersion = "guava-ckpt v1"

// NewFSCheckpointer creates a filesystem store rooted at dir.
func NewFSCheckpointer(dir string) *FSCheckpointer { return &FSCheckpointer{Dir: dir} }

// path maps a (fingerprint, step) to its checkpoint file.
func (f *FSCheckpointer) path(fingerprint, stepID string) string {
	return filepath.Join(f.Dir, fingerprint, url.PathEscape(stepID)+".ckpt")
}

// Save implements Checkpointer.
func (f *FSCheckpointer) Save(fingerprint, stepID string, snap *Snapshot) error {
	payload, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	header := CheckpointVersion + "\nsha256 " + hex.EncodeToString(sum[:]) + "\n"
	return WriteFileAtomic(f.FS, f.path(fingerprint, stepID), append([]byte(header), payload...))
}

// Load implements Checkpointer.
func (f *FSCheckpointer) Load(fingerprint, stepID string) (*Snapshot, error) {
	b, err := fsOrOS(f.FS).ReadFile(f.path(fingerprint, stepID))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	rest, ok := strings.CutPrefix(string(b), CheckpointVersion+"\n")
	if !ok {
		return nil, fmt.Errorf("%w: %s: bad or missing header", ErrCorruptCheckpoint, stepID)
	}
	sumLine, payload, ok := strings.Cut(rest, "\n")
	wantSum, ok2 := strings.CutPrefix(sumLine, "sha256 ")
	if !ok || !ok2 {
		return nil, fmt.Errorf("%w: %s: missing checksum line", ErrCorruptCheckpoint, stepID)
	}
	sum := sha256.Sum256([]byte(payload))
	if hex.EncodeToString(sum[:]) != wantSum {
		return nil, fmt.Errorf("%w: %s: checksum mismatch (torn or corrupted write)", ErrCorruptCheckpoint, stepID)
	}
	snap, err := decodeSnapshot(strings.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptCheckpoint, stepID, err)
	}
	return snap, nil
}

// Clear implements Checkpointer.
func (f *FSCheckpointer) Clear(fingerprint string) error {
	if fingerprint == "" {
		return fmt.Errorf("etl: refusing to clear an empty fingerprint")
	}
	return fsOrOS(f.FS).RemoveAll(filepath.Join(f.Dir, fingerprint))
}

// Steps lists the step IDs checkpointed under the fingerprint, unsorted.
func (f *FSCheckpointer) Steps(fingerprint string) ([]string, error) {
	ents, err := fsOrOS(f.FS).ReadDir(filepath.Join(f.Dir, fingerprint))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), ".ckpt")
		if !ok {
			continue
		}
		id, err := url.PathUnescape(name)
		if err != nil {
			continue
		}
		out = append(out, id)
	}
	return out, nil
}

// encodeSnapshot renders the checksummed payload of a checkpoint file:
//
//	step <url-escaped step ID>
//	tables <n>
//	table <url-escaped db> <url-escaped table> <rowcount>
//	<schema JSON line>
//	<row JSON line> × rowcount
//	…
//	quarantined <n>
//	<entry JSON line> × n
//	end
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "step %s\n", url.PathEscape(snap.Step))
	fmt.Fprintf(&sb, "tables %d\n", len(snap.Tables))
	for _, ts := range snap.Tables {
		fmt.Fprintf(&sb, "table %s %s %d\n",
			url.PathEscape(ts.Ref.DB), url.PathEscape(ts.Ref.Table), len(ts.Rows.Data))
		if err := relstore.WriteTyped(&sb, ts.Rows); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(&sb, "quarantined %d\n", len(snap.Quarantined))
	for _, q := range snap.Quarantined {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	sb.WriteString("end\n")
	return []byte(sb.String()), nil
}

// decodeSnapshot parses what encodeSnapshot produced.
func decodeSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	line := func() (string, error) {
		b, err := readCkptLine(br)
		return b, err
	}
	stepLine, err := line()
	if err != nil {
		return nil, err
	}
	rawStep, ok := strings.CutPrefix(stepLine, "step ")
	if !ok {
		return nil, fmt.Errorf("missing step line")
	}
	step, err := url.PathUnescape(rawStep)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Step: step}
	countLine, err := line()
	if err != nil {
		return nil, err
	}
	n, err := cutCount(countLine, "tables ")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		tabLine, err := line()
		if err != nil {
			return nil, err
		}
		parts := strings.Fields(tabLine)
		if len(parts) != 4 || parts[0] != "table" {
			return nil, fmt.Errorf("bad table line %q", tabLine)
		}
		db, err1 := url.PathUnescape(parts[1])
		tbl, err2 := url.PathUnescape(parts[2])
		rowCount, err3 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || err3 != nil || rowCount < 0 {
			return nil, fmt.Errorf("bad table line %q", tabLine)
		}
		schemaLine, err := line()
		if err != nil {
			return nil, err
		}
		schema, err := relstore.UnmarshalSchemaJSON([]byte(schemaLine))
		if err != nil {
			return nil, err
		}
		rows := &relstore.Rows{Schema: schema}
		for j := 0; j < rowCount; j++ {
			rowLine, err := line()
			if err != nil {
				return nil, err
			}
			row, err := relstore.UnmarshalRowJSON([]byte(rowLine))
			if err != nil {
				return nil, err
			}
			if err := schema.Validate(row); err != nil {
				return nil, err
			}
			rows.Data = append(rows.Data, row)
		}
		snap.Tables = append(snap.Tables, TableSnapshot{
			Ref: TableRef{DB: db, Table: tbl}, Rows: rows,
		})
	}
	qLine, err := line()
	if err != nil {
		return nil, err
	}
	qn, err := cutCount(qLine, "quarantined ")
	if err != nil {
		return nil, err
	}
	for i := 0; i < qn; i++ {
		entLine, err := line()
		if err != nil {
			return nil, err
		}
		var ent QuarantineEntry
		if err := json.Unmarshal([]byte(entLine), &ent); err != nil {
			return nil, err
		}
		snap.Quarantined = append(snap.Quarantined, ent)
	}
	endLine, err := line()
	if err != nil || endLine != "end" {
		return nil, fmt.Errorf("missing end marker (truncated payload)")
	}
	return snap, nil
}

// readCkptLine reads one newline-terminated line; EOF or a line without a
// terminator is an error (payload sections are always complete lines).
func readCkptLine(br *bufio.Reader) (string, error) {
	b, err := br.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("truncated checkpoint payload")
	}
	return strings.TrimSuffix(b, "\n"), nil
}

// cutCount parses "<prefix><int>" lines.
func cutCount(line, prefix string) (int, error) {
	raw, ok := strings.CutPrefix(line, prefix)
	if !ok {
		return 0, fmt.Errorf("missing %q line", strings.TrimSpace(prefix))
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %q count %q", strings.TrimSpace(prefix), raw)
	}
	return n, nil
}
