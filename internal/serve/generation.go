package serve

import (
	"sync/atomic"

	"guava/internal/etl"
	"guava/internal/relstore"
)

// A generation is one immutable snapshot of a study's serving state: the
// warehouse table, the delta cursors it was built from, the per-partition
// generation counters, and the merge stats that produced it. Extracts pin
// the current generation, read from it without any lock, and unpin; a
// refresh builds the *next* generation side-by-side and publishes it with
// one atomic pointer swap — so readers never block on a merge and never
// observe a half-applied one.
//
// Pinning is a refcount, but not the kind that protects memory — Go's GC
// does that for free. Pins protect the generation's on-disk directory:
// GC of retired generations only deletes a gen-<B> dir once no request is
// pinned to a generation persisted in it and the current generation is
// persisted elsewhere, so the last complete generation on disk is always
// one a crashed process can recover.
type generation struct {
	// num counts data-changing refreshes; extract results are stamped with
	// it, so a no-op refresh (which republishes under the same num)
	// preserves cache hits.
	num int64
	// table is the study's warehouse table at this generation. It is
	// never mutated after publish: the next refresh merges into a copy.
	table *relstore.Table
	// partGens is the per-contributor analogue of num: a delta refresh
	// bumps only the partitions it touched, so extracts pinned to one
	// contributor keep their cache entries when only others changed.
	partGens map[string]int64
	// cursors are the applied journal cursors this generation reflects
	// (nil until a full refresh seeds them). Treated as immutable: the
	// next builder clones before advancing.
	cursors *etl.DeltaCursors
	// stats is the merge report of the refresh that built this generation.
	stats etl.RefreshStats
	// onDisk is where the generation is durable: its base directory (dir,
	// "" when not persisted), shared with the generations persisted as
	// records over the same base. A no-op republish inherits the previous
	// generation's — same data, same num, still recoverable.
	onDisk
	// digest is the rowDigest of table's rows whenever the generation is
	// durable: a base computes it from the table, a record moves its
	// predecessor's by the patch, and a no-op republish inherits it.
	digest rowDigest

	owner   *servedStudy
	pins    atomic.Int64
	retired atomic.Bool
}

// genFor picks the cache stamp for an extract: the partition generation
// when the query is pinned to a single contributor, the study generation
// otherwise.
func (g *generation) genFor(contributor string) int64 {
	if contributor == "" {
		return g.num
	}
	return g.partGens[contributor]
}

// pin returns the current generation with a pin held, or nil before the
// first successful refresh. The load/incref/re-check loop closes the race
// with a concurrent publish: if the pointer moved while we were pinning,
// we unpin the loser and retry against the new current.
func (st *servedStudy) pin() *generation {
	for {
		g := st.cur.Load()
		if g == nil {
			return nil
		}
		g.pins.Add(1)
		if st.cur.Load() == g {
			if st.pinGauge != nil {
				st.pinGauge.Add(1)
			}
			return g
		}
		g.unpinQuiet()
	}
}

// unpin releases a pin taken by pin(); the last unpin of a retired
// generation triggers its on-disk GC.
func (g *generation) unpin() {
	if g.owner != nil && g.owner.pinGauge != nil {
		g.owner.pinGauge.Add(-1)
	}
	g.unpinQuiet()
}

func (g *generation) unpinQuiet() {
	if g.pins.Add(-1) == 0 && g.retired.Load() && g.owner != nil {
		g.owner.collect()
	}
}

// publish makes g the study's current generation and retires the old one.
// This is the only write to st.cur after registration, and it happens
// under refreshMu — readers are lock-free, builders are serialized.
func (s *Server) publish(st *servedStudy, g *generation) {
	old := st.cur.Swap(g)
	st.ready.Store(true)
	s.metrics().Counter("serve.snapshot.swaps").Inc()
	if old != nil && old != g {
		old.retired.Store(true)
		if old.dir != "" {
			st.gcMu.Lock()
			st.retiredGens = append(st.retiredGens, old)
			st.gcMu.Unlock()
		}
	}
	st.collect()
}

// collect deletes the directories of retired generations that recovery no
// longer needs, and forgets the generations it is done with. A directory
// goes once the current generation is persisted in another one and no pin
// holds a retired generation persisted in it. While the current generation
// is not persisted — its persist failed — nothing goes: the newest retired
// directory is still the last complete state a restart can serve, and the
// next successful persist sweeps the rest. It runs after every publish and
// on the last unpin of a retired generation.
func (st *servedStudy) collect() {
	if st.store == nil {
		return
	}
	st.gcMu.Lock()
	defer st.gcMu.Unlock()
	cur := st.cur.Load()
	if cur == nil || cur.dir == "" {
		return
	}
	// Read each pin count once: a generation seen pinned here stays listed,
	// and its own last unpin runs collect again.
	pinned := make([]bool, len(st.retiredGens))
	held := map[string]bool{cur.dir: true}
	for i, g := range st.retiredGens {
		if pinned[i] = g.pins.Load() > 0; pinned[i] {
			held[g.dir] = true
		}
	}
	kept := st.retiredGens[:0]
	for i, g := range st.retiredGens {
		switch {
		case pinned[i]:
			kept = append(kept, g)
		case !held[g.dir]:
			held[g.dir] = true
			st.store.removeGen(g.dir)
		}
	}
	clear(st.retiredGens[len(kept):])
	st.retiredGens = kept
}
