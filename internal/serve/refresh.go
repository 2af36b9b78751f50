package serve

import (
	"context"
	"fmt"
	"time"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
)

// refresh re-runs st's plan — over every key, or for a delta over only the
// keys its contributors' journals recorded past the current generation's
// cursors — and builds the study's next generation side-by-side: a private
// copy of the current table absorbs etl.Refresh's patch in a staging
// warehouse, and only then does one atomic pointer swap publish it.
// Extract readers keep serving the pinned previous generation for the
// whole build — they never block on the plan, the patch, or the persist,
// and never observe a partially patched partition. The study generation
// advances only when the patch changed data, which is what keeps cached
// extracts valid across no-op refreshes (a no-op republishes under the
// same number, inheriting the on-disk directory); a delta advances only
// the partitions of the contributors it changed.
func (s *Server) refresh(ctx context.Context, st *servedStudy, mode etl.RefreshMode, kind string) (etl.RefreshStats, error) {
	st.refreshMu.Lock()
	defer st.refreshMu.Unlock()

	delta := mode == etl.DeltaRefresh
	spanName := "serve.refresh "
	if delta {
		spanName = "serve.refresh-delta "
	}
	ctx = s.observe(ctx)
	ctx, span := obs.StartSpan(ctx, spanName+st.name,
		obs.String("study", st.name), obs.String("kind", kind))
	var stats etl.RefreshStats
	var err error
	defer func() {
		span.EndErr(err)
		st.noteRefresh(err)
	}()

	cur := st.cur.Load()
	if delta && (cur == nil || cur.cursors == nil) {
		err = fmt.Errorf("serve: study %q has no delta cursors (needs a full refresh first)", st.name)
		return stats, err
	}
	compiled, err := s.plans.get(st.spec)
	if err != nil {
		return stats, err
	}
	// The published generation's cursors stay frozen; the build advances a
	// copy. A study without journals keeps none.
	var cursors *etl.DeltaCursors
	if deltaCapable(st.spec) {
		cursors = etl.NewDeltaCursors()
		if cur != nil && cur.cursors != nil {
			for name, seq := range cur.cursors.Snapshot() {
				cursors.Set(name, seq)
			}
		}
	}
	next := nextTable(st, cur)
	staging := relstore.NewDB("warehouse_" + st.name)
	if err = staging.AddTable(next); err != nil {
		return stats, err
	}
	report, err := compiled.Refresh(ctx, staging, etl.RefreshOptions{Mode: mode, Policy: s.cfg.Policy, Cursors: cursors})
	if err != nil {
		return stats, err
	}
	stats = report.Stats

	var changedParts []string
	if delta {
		for name, cs := range report.ByContributor {
			if cs.Changed() {
				changedParts = append(changedParts, name)
			}
		}
	}
	g := nextGeneration(st, cur, next, !delta && stats.Changed(), changedParts)
	g.cursors = cursors
	g.stats = stats
	s.persist(st, cur, g, report)
	s.publish(st, g)

	if delta {
		s.metrics().Counter("serve.refresh.delta").Inc()
	}
	span.SetAttr(obs.Int("generation", g.num))
	return stats, nil
}

// nextTable returns the table the next generation is built in: a private
// copy of the current generation's table, or an empty contributor-indexed
// one before the first refresh. The copy is what makes the swap safe — the
// published table is never mutated.
func nextTable(st *servedStudy, cur *generation) *relstore.Table {
	if cur == nil {
		next := relstore.NewTable(st.tableName, st.schema)
		_ = next.CreateIndex(etl.ContributorColumn)
		return next
	}
	return cur.table.Clone()
}

// newGeneration wraps table as a generation of st after putting its rows in
// canonical order — every column, in schema order, the order extract pages
// are cut in — so that an extract miss pages through storage order and
// never sorts. Every generation, whether built by a full refresh, a delta
// or recovery, goes through here before it is persisted and published.
func newGeneration(st *servedStudy, table *relstore.Table) *generation {
	_ = table.Order(table.Schema().Names()...) // schema names always resolve
	return &generation{table: table, partGens: map[string]int64{}, owner: st}
}

// nextGeneration assembles the successor generation object. A full refresh
// that changed data advances the study number and every partition; a delta
// advances only changedParts. An unchanged build keeps the number and
// inherits the previous on-disk state — same data, still recoverable. The
// digest starts as the previous generation's; persist moves it by the
// patch.
func nextGeneration(st *servedStudy, cur *generation, table *relstore.Table, changedAll bool, changedParts []string) *generation {
	g := newGeneration(st, table)
	if cur != nil {
		g.num = cur.num
		g.cursors = cur.cursors
		g.digest = cur.digest
		for k, v := range cur.partGens {
			g.partGens[k] = v
		}
	}
	switch {
	case changedAll:
		g.num++
		for _, c := range st.spec.Contributors {
			g.partGens[c.Name]++
		}
	case len(changedParts) > 0:
		g.num++
		for _, name := range changedParts {
			g.partGens[name]++
		}
	default:
		if cur != nil {
			g.onDisk = cur.onDisk
		}
	}
	return g
}

// persist durably saves g, the successor of cur that report built. A
// data-changing generation whose predecessor is durable is written as one
// patch record into the predecessor's base directory, while the records
// over that base stay within 1/compactShare of its table.rel; any other
// generation worth saving is written as a full base. A failed save is
// logged and counted but does not fail the refresh: the in-memory swap
// still happens, the previous on-disk generation survives as the last
// complete one (collect keeps it while the current generation has no
// directory), and the next persist writes a base.
func (s *Server) persist(st *servedStudy, cur, g *generation, report *etl.RefreshReport) {
	changed := report.Stats.Changed()
	if st.store == nil || (!changed && g.dir != "") {
		return
	}
	if !changed && g.num == 0 {
		return // nothing ever changed and nothing is on disk: no state worth saving
	}
	refreshes := st.refreshes.Load() + 1
	var rec []byte
	if changed && cur != nil && cur.dir != "" {
		// cur is durable, so its digest is its rows', and the patch moves
		// g's copy of it. A patch that cannot be encoded leaves rec nil;
		// the base written instead encodes the same rows and reports why.
		if lines, err := renderPatch(report, &g.digest); err == nil {
			rec, _ = encodeRecord(cur.onDisk, g, refreshes, lines)
		}
	}
	var err error
	if rec != nil && cur.logBytes+int64(len(rec)) <= cur.baseBytes/compactShare {
		if err = st.store.saveRecord(cur.onDisk, g, rec); err == nil {
			s.metrics().Counter("serve.snapshot.records").Inc()
		}
	} else {
		err = st.store.save(g, refreshes)
	}
	if err != nil {
		s.metrics().Counter("serve.snapshot.persist.errors").Inc()
		s.logf("serve: study %q failed to persist generation %d: %v", st.name, g.num, err)
		return
	}
	s.metrics().Counter("serve.snapshot.persist").Inc()
}

// refreshLoop periodically refreshes one study until stop closes. Errors
// are recorded on the study (visible in /studies as lastError) and the
// loop keeps going — a transiently failing contributor must not kill the
// refresh cadence.
func (s *Server) refreshLoop(st *servedStudy, stop <-chan struct{}) {
	defer s.loopWG.Done()
	tick := time.NewTicker(s.cfg.RefreshInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.metrics().Counter("serve.refresh.background").Inc()
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
			s.refreshAuto(ctx, st, "background")
			cancel()
		}
	}
}
