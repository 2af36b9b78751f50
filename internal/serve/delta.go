package serve

import (
	"context"

	"guava/internal/etl"
)

// The serving daemon's background cadence is where incremental refresh pays
// off: instead of re-running every study's full plan on every tick, the loop
// polls each contributor journal's high-water mark (an O(1) read), skips
// studies whose warehouses are already current, and refreshes dirty ones
// from the delta alone. Cache invalidation is partitioned to match: a delta
// that touched only contributor X bumps X's partition generation, so
// extracts pinned to other contributors keep their cached bodies.

// deltaCapable reports whether every contributor of the spec exposes a
// change journal — the precondition for a delta refresh.
func deltaCapable(spec *etl.StudySpec) bool {
	if len(spec.Contributors) == 0 {
		return false
	}
	for _, c := range spec.Contributors {
		if c.DeltaSource() == nil {
			return false
		}
	}
	return true
}

// studyDirty reports whether any contributor journal has advanced past the
// study's applied cursors — without reading a single changed key.
func studyDirty(spec *etl.StudySpec, cursors *etl.DeltaCursors) (bool, error) {
	for _, c := range spec.Contributors {
		src := c.DeltaSource()
		if src == nil {
			return true, nil
		}
		hwm, err := src.HighWaterMark()
		if err != nil {
			return true, err
		}
		if hwm != cursors.Get(c.Name) {
			return true, nil
		}
	}
	return false, nil
}

// refreshAuto is the background loop's policy: full refresh for studies
// without journals, nothing for clean studies, delta for dirty ones, full
// as the fallback when the delta fails hard. Extraction misses are not
// hard failures: under a quarantine budget a delta dead-letters them just
// as a full refresh would.
func (s *Server) refreshAuto(ctx context.Context, st *servedStudy, kind string) {
	cur := st.cur.Load()
	if cur == nil || cur.cursors == nil || !deltaCapable(st.spec) {
		_, _ = s.refresh(ctx, st, etl.FullRefresh, kind)
		return
	}
	if dirty, err := studyDirty(st.spec, cur.cursors); err == nil && !dirty {
		s.metrics().Counter("serve.refresh.clean").Inc()
		return
	}
	if _, err := s.refresh(ctx, st, etl.DeltaRefresh, kind); err != nil {
		s.metrics().Counter("serve.refresh.delta.fallback").Inc()
		_, _ = s.refresh(ctx, st, etl.FullRefresh, kind)
	}
}
