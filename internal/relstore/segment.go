package relstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The v2 ".rel" layout extends the v1 typed line format (serial.go) with a
// segment directory of fixed-size, checksummed blocks. A v2 file is:
//
//	header line: {"rel":2,"rows":N,"schema":[...],"segments":[{"rows":r,"bytes":b,"crc":c},...]}
//	segment 0:   r0 row lines (b0 bytes, CRC-32/IEEE c0)
//	segment 1:   ...
//
// Row lines are exactly the v1 kind-tagged JSON rows, so the two formats
// share one row codec (AppendRowJSON/UnmarshalRowJSON); only the framing
// differs. Nothing in production writes v2 any more: generation bases and
// warehouse tables are v1 files. ReadTyped, which sniffs the first byte,
// keeps reading v2 so that generation directories and warehouses written
// before that change still load. WriteTypedSegmented remains only for
// guavabench's segment-encode probe.

// defaultSegmentRows is the rows-per-segment WriteTypedSegmented uses when
// the caller does not choose a size.
const defaultSegmentRows = 4096

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

// WriteTypedSegmented writes a relation in the v2 segment-file layout with
// segRows rows per segment (<= 0 uses defaultSegmentRows). An empty
// relation writes a header with no segments. Row lines are appended
// straight into one buffer, so the cost per row is its bytes and nothing
// else.
func WriteTypedSegmented(w io.Writer, rows *Rows, segRows int) error {
	if segRows <= 0 {
		segRows = defaultSegmentRows
	}
	data := rows.Data
	hdr := relHeader{Rel: 2, Rows: len(data), Schema: schemaToSerial(rows.Schema)}
	var blocks []byte
	var err error
	for lo := 0; lo < len(data); lo += segRows {
		hi := min(lo+segRows, len(data))
		start := len(blocks)
		for _, r := range data[lo:hi] {
			if blocks, err = AppendRowJSON(blocks, r); err != nil {
				return err
			}
			blocks = append(blocks, '\n')
		}
		if lo == 0 && hi < len(data) {
			// Size the buffer for the rest from the first segment's bytes
			// per row, with an eighth to spare, so later segments seldom
			// regrow it.
			rest := len(blocks) * (len(data) - hi) / hi
			blocks = slices.Grow(blocks, rest+rest/8)
		}
		hdr.Segments = append(hdr.Segments, segMeta{
			Rows:  hi - lo,
			Bytes: int64(len(blocks) - start),
			CRC:   crc32.ChecksumIEEE(blocks[start:]),
		})
	}
	header, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(header, '\n')); err != nil {
		return err
	}
	_, err = w.Write(blocks)
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
