package relstore

import "guava/internal/obs"

// Relational-operator invocation counters. relstore's operators take no
// context, so they record into the process-wide obs.Default registry;
// the instruments are package vars so the hot path is one atomic add
// with no registry lookup. Exported under the "relstore.ops.<name>"
// metric names documented in OBSERVABILITY.md.
var (
	opSelect   = obs.Default.Counter("relstore.ops.select")
	opProject  = obs.Default.Counter("relstore.ops.project")
	opDerive   = obs.Default.Counter("relstore.ops.derive")
	opExtend   = obs.Default.Counter("relstore.ops.extend")
	opRename   = obs.Default.Counter("relstore.ops.rename")
	opJoin     = obs.Default.Counter("relstore.ops.join")
	opLeftJoin = obs.Default.Counter("relstore.ops.left_join")
	opUnionAll = obs.Default.Counter("relstore.ops.union_all")
	opUnion    = obs.Default.Counter("relstore.ops.union")
	opDistinct = obs.Default.Counter("relstore.ops.distinct")
	opSortBy   = obs.Default.Counter("relstore.ops.sort_by")
	opPivot    = obs.Default.Counter("relstore.ops.pivot")
	opUnpivot  = obs.Default.Counter("relstore.ops.unpivot")
	opGroupBy  = obs.Default.Counter("relstore.ops.group_by")
)

// relstore.batch.rows counts the rows that predicate scans (the Select
// operator and Table.SelectPage's full-scan path) and the bulk operators
// (Project, Derive, Extend, Join, Distinct, Pivot, Unpivot, GroupBy and
// EqualUnordered, one count per pass) passed over.
var mBatchRows = obs.Default.Counter("relstore.batch.rows")
