package relstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
)

// The v2 ".rel" layout extends the v1 typed line format (serial.go) with a
// segment directory, so a relation can be read piecewise and a warehouse can
// exceed RAM. A v2 file is:
//
//	header line: {"rel":2,"rows":N,"schema":[...],"segments":[{"rows":r,"bytes":b,"crc":c},...]}
//	segment 0:   r0 row lines (b0 bytes, CRC-32/IEEE c0)
//	segment 1:   ...
//
// Row lines are exactly the v1 kind-tagged JSON rows, so the two formats
// share one row codec (AppendRowJSON/UnmarshalRowJSON); only the framing
// differs. v1 files (whose first line is the bare schema array, starting
// '[') remain readable by ReadTyped, which sniffs the first byte. Writes
// are deterministic: the same relation and segment size always produce the
// same bytes, preserving the byte-identical round-trip invariant the
// checkpoint and warehouse layers compare with cmp(1).

// DefaultSegmentRows is the rows-per-segment used when a caller asks for
// segmenting without choosing a size; it matches the operator batch width.
const DefaultSegmentRows = DefaultBatchSize

// segMeta describes one segment block in the v2 header.
type segMeta struct {
	Rows  int    `json:"rows"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// relHeader is the v2 header line.
type relHeader struct {
	Rel      int            `json:"rel"`
	Rows     int            `json:"rows"`
	Schema   []serialColumn `json:"schema"`
	Segments []segMeta      `json:"segments"`
}

func schemaToSerial(s *Schema) []serialColumn {
	cols := make([]serialColumn, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = serialColumn{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull}
	}
	return cols
}

func schemaFromSerial(cols []serialColumn) (*Schema, error) {
	out := make([]Column, len(cols))
	for i, c := range cols {
		k, err := kindFromString(c.Type)
		if err != nil {
			return nil, err
		}
		out[i] = Column{Name: c.Name, Type: k, NotNull: c.NotNull}
	}
	return NewSchema(out...)
}

// WriteTypedSegmented writes a relation in the v2 segment-file layout with
// segRows rows per segment (<= 0 uses DefaultSegmentRows). An empty relation
// writes a header with no segments.
func WriteTypedSegmented(w io.Writer, rows *Rows, segRows int) error {
	hl, blocks, err := encodeSegmented(rows.Schema, rows.Data, segRows)
	if err != nil {
		return err
	}
	return writeSegmented(w, hl, blocks)
}

// WriteTypedSegmented writes the table in the v2 segment-file layout, rows
// in storage order, exactly as WriteTypedSegmented writes t.Rows() — but
// straight from table storage, with no row copied. The rows are encoded
// under the read lock, which is released before w is written.
func (t *Table) WriteTypedSegmented(w io.Writer, segRows int) error {
	t.mu.RLock()
	t.check.verifyAll(t.name, t.rows)
	hl, blocks, err := encodeSegmented(t.schema, t.rows, segRows)
	t.mu.RUnlock()
	if err != nil {
		return err
	}
	return writeSegmented(w, hl, blocks)
}

// encodeSegmented encodes rows as v2 segment blocks, back to back in one
// buffer, and returns the header line (newline included) that describes
// them. Row lines are appended straight into that buffer, so the cost per
// row is its bytes and nothing else.
func encodeSegmented(schema *Schema, rows []Row, segRows int) (header, blocks []byte, err error) {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	hdr := relHeader{Rel: 2, Rows: len(rows), Schema: schemaToSerial(schema)}
	for lo := 0; lo < len(rows); lo += segRows {
		hi := min(lo+segRows, len(rows))
		start := len(blocks)
		for _, r := range rows[lo:hi] {
			if blocks, err = AppendRowJSON(blocks, r); err != nil {
				return nil, nil, err
			}
			blocks = append(blocks, '\n')
		}
		if lo == 0 && hi < len(rows) {
			// Size the buffer for the rest from the first segment's bytes
			// per row, with an eighth to spare, so later segments seldom
			// regrow it.
			rest := len(blocks) * (len(rows) - hi) / hi
			blocks = slices.Grow(blocks, rest+rest/8)
		}
		hdr.Segments = append(hdr.Segments, segMeta{
			Rows:  hi - lo,
			Bytes: int64(len(blocks) - start),
			CRC:   crc32.ChecksumIEEE(blocks[start:]),
		})
		mSegWrites.Inc()
	}
	if header, err = json.Marshal(hdr); err != nil {
		return nil, nil, err
	}
	return append(header, '\n'), blocks, nil
}

// writeSegmented writes an encoded v2 file: the header line, then the blocks.
func writeSegmented(w io.Writer, header, blocks []byte) error {
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err := w.Write(blocks)
	return err
}

// parseSegmentBlock decodes and validates one segment's bytes against its
// header entry: checksum first, then the row lines against the schema.
func parseSegmentBlock(block []byte, meta segMeta, schema *Schema, segIdx int) ([]Row, error) {
	if got := crc32.ChecksumIEEE(block); got != meta.CRC {
		return nil, fmt.Errorf("relstore: segment %d checksum mismatch: file says %08x, block hashes to %08x", segIdx, meta.CRC, got)
	}
	data := make([]Row, 0, meta.Rows)
	for len(block) > 0 {
		nl := bytes.IndexByte(block, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("relstore: segment %d: truncated row line", segIdx)
		}
		row, err := UnmarshalRowJSON(block[:nl])
		if err != nil {
			return nil, err
		}
		if err := schema.Validate(row); err != nil {
			return nil, fmt.Errorf("relstore: segment %d row %d: %w", segIdx, len(data), err)
		}
		data = append(data, row)
		block = block[nl+1:]
	}
	if len(data) != meta.Rows {
		return nil, fmt.Errorf("relstore: segment %d holds %d rows, header says %d", segIdx, len(data), meta.Rows)
	}
	return data, nil
}

// readTypedV2 reads the segment blocks following an already-parsed v2
// header line, materializing the whole relation.
func readTypedV2(br *bufio.Reader, hdr relHeader) (*Rows, error) {
	schema, err := schemaFromSerial(hdr.Schema)
	if err != nil {
		return nil, err
	}
	data := make([]Row, 0, hdr.Rows)
	for i, meta := range hdr.Segments {
		block := make([]byte, meta.Bytes)
		if _, err := io.ReadFull(br, block); err != nil {
			return nil, fmt.Errorf("relstore: read segment %d: %w", i, err)
		}
		rows, err := parseSegmentBlock(block, meta, schema, i)
		if err != nil {
			return nil, err
		}
		data = append(data, rows...)
	}
	if len(data) != hdr.Rows {
		return nil, fmt.Errorf("relstore: v2 relation holds %d rows, header says %d", len(data), hdr.Rows)
	}
	return &Rows{Schema: schema, Data: data}, nil
}

// SegmentSet is a lazily-loaded, budgeted view over a v2 segment file: the
// header is parsed eagerly, segment blocks load on first access and stay
// resident until the byte budget forces least-recently-used eviction. A
// relation larger than the budget can still be scanned end to end — each
// segment is resident while being read and evicted as later ones load.
// SegmentSet is safe for concurrent use.
type SegmentSet struct {
	// Immutable after OpenSegments (no lock needed to read).
	f       *os.File
	schema  *Schema
	hdr     relHeader
	offsets []int64
	budget  int64 // max resident block bytes; <= 0 means unlimited

	mu       sync.Mutex
	resident map[int]*segEntry
	access   int64 // LRU clock
	bytes    int64 // resident block bytes
}

type segEntry struct {
	rows []Row
	size int64
	last int64
}

// OpenSegments opens a v2 segment file for lazy, budgeted access.
// budgetBytes caps the resident segment bytes (on-disk block size as the
// proxy); <= 0 means unlimited. The file must be v2 — v1 files have no
// segment directory to seek by; read those with ReadTyped.
func OpenSegments(path string, budgetBytes int64) (*SegmentSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	hl, err := readLine(br)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("relstore: open segments: %w", err)
	}
	if len(hl) == 0 || hl[0] != '{' {
		f.Close()
		return nil, fmt.Errorf("relstore: %s is not a v2 segment file (header starts %q); use ReadTyped", path, firstByte(hl))
	}
	var hdr relHeader
	if err := json.Unmarshal(hl, &hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("relstore: parse v2 header: %w", err)
	}
	if hdr.Rel != 2 {
		f.Close()
		return nil, fmt.Errorf("relstore: unsupported .rel version %d", hdr.Rel)
	}
	schema, err := schemaFromSerial(hdr.Schema)
	if err != nil {
		f.Close()
		return nil, err
	}
	offsets := make([]int64, len(hdr.Segments))
	off := int64(len(hl) + 1)
	for i, m := range hdr.Segments {
		offsets[i] = off
		off += m.Bytes
	}
	return &SegmentSet{
		f: f, schema: schema, hdr: hdr, offsets: offsets,
		resident: make(map[int]*segEntry), budget: budgetBytes,
	}, nil
}

// Close releases the underlying file.
func (s *SegmentSet) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resident = map[int]*segEntry{}
	s.bytes = 0
	return s.f.Close()
}

// Schema returns the relation schema.
func (s *SegmentSet) Schema() *Schema { return s.schema }

// Len returns the total row count from the header, without loading data.
func (s *SegmentSet) Len() int { return s.hdr.Rows }

// NumSegments returns the segment count.
func (s *SegmentSet) NumSegments() int { return len(s.hdr.Segments) }

// Resident returns the currently resident segment count and bytes.
func (s *SegmentSet) Resident() (segments int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident), s.bytes
}

// segment returns segment i's rows, loading and evicting as needed. The
// returned slice must be treated read-only.
func (s *SegmentSet) segment(i int) ([]Row, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.access++
	if e, ok := s.resident[i]; ok {
		e.last = s.access
		mSegHits.Inc()
		return e.rows, nil
	}
	meta := s.hdr.Segments[i]
	block := make([]byte, meta.Bytes)
	if _, err := s.f.ReadAt(block, s.offsets[i]); err != nil {
		return nil, fmt.Errorf("relstore: load segment %d: %w", i, err)
	}
	rows, err := parseSegmentBlock(block, meta, s.schema, i)
	if err != nil {
		return nil, err
	}
	mSegLoads.Inc()
	s.resident[i] = &segEntry{rows: rows, size: meta.Bytes, last: s.access}
	s.bytes += meta.Bytes
	// Evict least-recently-used segments past the budget, never the one
	// just loaded.
	for s.budget > 0 && s.bytes > s.budget && len(s.resident) > 1 {
		victim, oldest := -1, s.access+1
		for j, e := range s.resident {
			if j != i && e.last < oldest {
				victim, oldest = j, e.last
			}
		}
		if victim < 0 {
			break
		}
		s.bytes -= s.resident[victim].size
		delete(s.resident, victim)
		mSegEvicts.Inc()
	}
	return rows, nil
}

// Segment materializes segment i as a Rows snapshot (rows cloned, safe to
// retain).
func (s *SegmentSet) Segment(i int) (*Rows, error) {
	rows, err := s.segment(i)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(rows))
	for j, r := range rows {
		out[j] = r.Clone()
	}
	return &Rows{Schema: s.schema, Data: out}, nil
}

// Scan calls fn for every row in segment order, loading segments on demand
// under the budget. The row passed to fn must not be mutated or retained.
// Scanning stops early if fn returns false.
func (s *SegmentSet) Scan(fn func(Row) bool) error {
	for i := range s.hdr.Segments {
		rows, err := s.segment(i)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if !fn(r) {
				return nil
			}
		}
	}
	return nil
}

// Select evaluates pred over the relation segment by segment — the
// segment-mode scan path: each segment loads, filters through the columnar
// kernels, and may be evicted before the next loads, so the peak resident
// set is bounded by the budget plus the (small) matching output.
func (s *SegmentSet) Select(pred Pred) (*Rows, error) {
	var out []Row
	for i := range s.hdr.Segments {
		rows, err := s.segment(i)
		if err != nil {
			return nil, err
		}
		part, err := Select(&Rows{Schema: s.schema, Data: rows}, pred)
		if err != nil {
			return nil, err
		}
		for _, r := range part.Data {
			out = append(out, r.Clone())
		}
	}
	return &Rows{Schema: s.schema, Data: out}, nil
}

// Rows materializes the whole relation, ignoring the budget.
func (s *SegmentSet) Rows() (*Rows, error) {
	out := make([]Row, 0, s.hdr.Rows)
	err := s.Scan(func(r Row) bool {
		out = append(out, r.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: s.schema, Data: out}, nil
}

func firstByte(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return string(b[:1])
}
