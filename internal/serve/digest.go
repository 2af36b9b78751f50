package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"

	"guava/internal/relstore"
)

// rowDigest is the multiset hash of a table's rows: the sum, mod 2^256, of
// the SHA-256 of each row's relstore.AppendRowJSON line — AdHASH (Bellare &
// Micciancio, "A New Paradigm for Collision-Free Hashing: Incrementality at
// Reduced Cost", EUROCRYPT 1997). Adding or removing a row moves it in
// O(row), so a generation's digest follows from its predecessor's and its
// patch, and two tables holding the same rows in any order share it. It
// guards against corruption and replay bugs, not against an adversary.
//
// The sum is four 64-bit limbs, least significant first.
type rowDigest [4]uint64

// add adds one row line's hash.
func (d *rowDigest) add(line []byte) {
	h := lineHash(line)
	var c uint64
	for i := range d {
		d[i], c = bits.Add64(d[i], h[i], c)
	}
}

// sub removes one row line's hash.
func (d *rowDigest) sub(line []byte) {
	h := lineHash(line)
	var b uint64
	for i := range d {
		d[i], b = bits.Sub64(d[i], h[i], b)
	}
}

// lineHash is a line's SHA-256 read as a 256-bit big-endian number, in
// rowDigest's limb order.
func lineHash(line []byte) rowDigest {
	sum := sha256.Sum256(line)
	var h rowDigest
	for i := range h {
		h[i] = binary.BigEndian.Uint64(sum[24-8*i:])
	}
	return h
}

// String renders the digest as 64 hex digits, most significant first.
func (d rowDigest) String() string {
	var b [32]byte
	for i, limb := range d {
		binary.BigEndian.PutUint64(b[24-8*i:], limb)
	}
	return hex.EncodeToString(b[:])
}

// tableDigest computes the digest of every row of table from scratch.
func tableDigest(table *relstore.Table) (rowDigest, error) {
	var d rowDigest
	var line []byte
	var err error
	table.Scan(func(r relstore.Row) bool {
		if line, err = relstore.AppendRowJSON(line[:0], r); err != nil {
			return false
		}
		d.add(line)
		return true
	})
	if err != nil {
		return rowDigest{}, fmt.Errorf("digest: %w", err)
	}
	return d, nil
}
