//go:build rowcheck

package relstore

import (
	"fmt"
	"maps"
	"math"
)

// rowCheck proves the ownership rule (see Table) under the existing test
// suites: built with -tags rowcheck, a table records a hash of every row it
// stores and re-checks it whenever it hands the row out, clones, orders,
// updates, deletes or serializes it, and when its database drops it,
// panicking with the table name once a caller has written into a row it
// was handed. Rows are identified by their backing array, and counted,
// because one row may sit in a table more than once (a relation unioned
// with itself).
type rowCheck struct {
	rows map[rowRef]rowSum
}

type rowRef struct {
	first *Value
	n     int
}

type rowSum struct {
	sum  uint64
	refs int
}

func refOf(r Row) (rowRef, bool) {
	if len(r) == 0 {
		return rowRef{}, false
	}
	return rowRef{&r[0], len(r)}, true
}

func (c *rowCheck) record(table string, r Row) {
	ref, ok := refOf(r)
	if !ok {
		return
	}
	if c.rows == nil {
		c.rows = make(map[rowRef]rowSum)
	}
	c.verify(table, r)
	e := c.rows[ref]
	c.rows[ref] = rowSum{sum: hashRow(r), refs: e.refs + 1}
}

func (c *rowCheck) forget(r Row) {
	ref, ok := refOf(r)
	if !ok {
		return
	}
	if e, ok := c.rows[ref]; ok && e.refs > 1 {
		e.refs--
		c.rows[ref] = e
	} else {
		delete(c.rows, ref)
	}
}

func (c *rowCheck) verify(table string, r Row) {
	ref, ok := refOf(r)
	if !ok {
		return
	}
	if e, ok := c.rows[ref]; ok && e.sum != hashRow(r) {
		panic(fmt.Sprintf("relstore: a caller wrote into a row stored in table %q: now %v", table, r))
	}
}

func (c *rowCheck) verifyAll(table string, rows []Row) {
	for _, r := range rows {
		c.verify(table, r)
	}
}

// verifyTable re-checks every row of a table leaving its database, so a
// write into the rows of a dropped table still shows.
func verifyTable(t *Table) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.check.verifyAll(t.name, t.rows)
}

func (c *rowCheck) clone() rowCheck { return rowCheck{rows: maps.Clone(c.rows)} }

// hashRow is 64-bit FNV-1a over every cell's kind and payload.
func hashRow(r Row) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	for _, v := range r {
		mix(uint64(v.kind))
		mix(uint64(v.i))
		mix(math.Float64bits(v.f))
		mix(uint64(len(v.s)))
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= 1099511628211
		}
		if v.b {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}
