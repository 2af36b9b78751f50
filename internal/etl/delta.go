package etl

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"guava/internal/patterns"
	"guava/internal/relstore"
)

// DeltaSource is a contributor's changed-row feed: a monotone high-water
// mark plus the distinct instance keys recorded past a cursor. It is the
// queryable form of the Audit pattern's per-row change timestamps.
type DeltaSource interface {
	// HighWaterMark returns the feed's current position without reading
	// any keys — cheap enough to poll for dirtiness.
	HighWaterMark() (int64, error)
	// ChangedSince returns the distinct keys recorded in (since, hwm] and
	// the hwm the caller's cursor should advance to after applying them.
	ChangedSince(since int64) ([]relstore.Value, int64, error)
}

// ErrNoDeltaSource reports that a contributor's stack has no change journal,
// so only full recomputation can refresh it.
var ErrNoDeltaSource = errors.New("etl: contributor has no delta source (stack has no journal)")

// journalSource adapts a pattern stack's journal to DeltaSource.
type journalSource struct {
	j    *patterns.Journal
	db   *relstore.DB
	form patterns.FormInfo
}

func (s journalSource) HighWaterMark() (int64, error) {
	return s.j.HighWaterMark(s.db, s.form)
}

func (s journalSource) ChangedSince(since int64) ([]relstore.Value, int64, error) {
	return s.j.ChangedSince(s.db, s.form, since)
}

// DeltaSource returns the contributor's changed-row feed, or nil when its
// stack carries no journal (delta refresh is then impossible and callers
// must fall back to a full refresh).
func (c *ContributorPlan) DeltaSource() DeltaSource {
	if c.Stack == nil || c.Stack.Journal == nil {
		return nil
	}
	return journalSource{j: c.Stack.Journal, db: c.DB, form: c.Form}
}

// DeltaCursors holds the per-contributor high-water marks a study has applied
// so far. It is safe for concurrent use and serializes to JSON so a refresh
// daemon or CLI can persist its position alongside the warehouse, exactly the
// way run checkpoints persist partial workflow state.
type DeltaCursors struct {
	mu  sync.Mutex
	pos map[string]int64
}

// NewDeltaCursors returns an empty cursor set: every contributor starts at
// position 0, i.e. "everything ever journaled is new".
func NewDeltaCursors() *DeltaCursors {
	return &DeltaCursors{pos: make(map[string]int64)}
}

// Get returns the cursor for a contributor (0 when never set).
func (c *DeltaCursors) Get(contributor string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos[contributor]
}

// Set advances (or rewinds) the cursor for a contributor.
func (c *DeltaCursors) Set(contributor string, seq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pos[contributor] = seq
}

// Snapshot returns a copy of all cursors.
func (c *DeltaCursors) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.pos))
	for k, v := range c.pos {
		out[k] = v
	}
	return out
}

// Save writes the cursors as JSON with the temp+fsync+rename discipline, so
// a crash mid-save never leaves a truncated cursor file behind.
func (c *DeltaCursors) Save(path string) error { return c.SaveFS(nil, path) }

// SaveFS is Save through an explicit FS — the seam fault-injection tests
// use to tear the cursor write.
func (c *DeltaCursors) SaveFS(fsys FS, path string) error {
	data, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(fsys, path, append(data, '\n'))
}

// LoadDeltaCursors reads a cursor file written by Save. A missing file is not
// an error: it yields empty cursors, which makes the next delta refresh
// re-apply the whole journal — slower, never wrong (the patch is idempotent).
func LoadDeltaCursors(path string) (*DeltaCursors, error) { return LoadDeltaCursorsFS(nil, path) }

// LoadDeltaCursorsFS is LoadDeltaCursors through an explicit FS.
func LoadDeltaCursorsFS(fsys FS, path string) (*DeltaCursors, error) {
	data, err := fsOrOS(fsys).ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return NewDeltaCursors(), nil
	}
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int64)
	if err := json.Unmarshal(data, &pos); err != nil {
		return nil, fmt.Errorf("etl: cursor file %s: %w", path, err)
	}
	return &DeltaCursors{pos: pos}, nil
}
