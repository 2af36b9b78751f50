// Package relstore implements the relational storage engine that underlies
// every database in the GUAVA/MultiClass reproduction: contributor databases
// written by reporting tools, the temporary databases produced by each ETL
// stage (Figure 6 of the paper), and the study warehouse itself.
//
// The engine provides typed columns, structured predicates and scalar
// expressions (so that plans can be rendered back to SQL text for
// documentation, as the paper renders classifier output to XQuery), hash
// indexes, and the relational operators the paper's design patterns need —
// including the pivot/un-pivot pair required by the Generic (EAV) layout of
// Table 1.
//
// # Row ownership
//
// A stored row is immutable: once a [Row] is in a [Table], nothing writes
// into it, and the API is built on that rule. Reads hand out the stored
// rows themselves — [Table.Rows], [Table.Select], [Table.SelectPage] and
// [Table.Lookup] return them in a fresh slice that the caller may reorder
// or truncate, but a caller must never write into a row it got from a
// table; one that needs a changed row clones it first. [Table.InsertAll]
// takes ownership of its rows instead of copying them, so one row may sit
// in several tables at once, and the caller must not write into it
// afterwards. [Table.Insert] still clones its argument, and [Table.Update]
// builds each replacement on a clone. A full ETL run thus moves rows from
// pattern read to warehouse without copying one, and [Table.Clone] shares
// every row with its source. Built with the rowcheck tag, every table
// hashes each row it stores and panics, naming the table, when it finds a
// row changed under it (rowcheck.go); the default build compiles that
// check to nothing.
//
// # Columnar execution
//
// Operators execute on a columnar core. A relation is still presented to
// callers as row-oriented ([Rows], [Row]), but internally the hot operators
// split their input into fixed-size chunks ([BatchSize] rows, default 4096)
// and evaluate each chunk against typed column vectors:
//
//   - [Vector] is one column of a chunk in struct-of-arrays form — a typed
//     payload slice for the column's declared kind, a null bitmap, and a
//     sparse exception map for the rare cells whose runtime kind differs
//     from the declared kind (e.g. an Int stored in a REAL column, which
//     [Schema.Validate] permits). Vector.Value reconstructs every cell
//     exactly, so the columnar form is lossless.
//   - [Batch] is a chunk of vectors sharing a schema; [BatchFromRows]
//     vectorizes only the columns an operator touches.
//
// Predicates over plain column/literal operands run as typed loops
// (see the kernels in colexec.go); everything else — CASE guards,
// arithmetic comparands, derivations — falls back to per-row evaluation
// restricted to still-selected rows, so AND/OR short-circuit error
// semantics match row-at-a-time evaluation exactly.
//
// # Parallelism
//
// Multi-chunk operator calls fan out across a bounded worker pool of
// [Parallelism] goroutines (default min(GOMAXPROCS, 8); configure with
// [SetParallelism], 1 disables parallelism). Select, Project, Derive,
// Extend, Join, LeftJoin, Distinct, SortBy, Pivot, Unpivot, and GroupBy all
// use the pool for their scan/probe/key phases, but every operator
// assembles chunk results in chunk order, so output is byte-identical to
// sequential execution regardless of the pool size. UnionAll and Rename are
// pure copies and stay sequential.
//
// # Sharding
//
// Callers opt into coarser-grained parallelism by hash-sharding a relation
// on an entity-key column: [NewShardedTable] builds an n-way [ShardedTable]
// whose inserts route by FNV-1a hash of the key value and whose Select runs
// one pool task per shard (each shard is an independent [Table] with its
// own lock and indexes); [ShardRows] partitions a transient [Rows] the same
// way, and [ShardedJoin] joins shard pairs in parallel. Sharded results are
// deterministic — shard order, then per-shard order — but ShardedJoin's
// output is shard-grouped rather than left-relation order.
//
// # Durable format
//
// Relations serialize in a typed line format (serial.go) that round-trips
// bit for bit. [AppendRowJSON] is the one row encoder: it appends a row's
// kind-tagged JSON line to a byte buffer, byte-identical to what
// encoding/json renders and without allocating for plain rows, leaving
// escaped strings to json.Marshal. [WriteTyped] emits the v1 single-stream
// layout; [WriteTypedSegmented] and [Table.WriteTypedSegmented] emit the v2
// segment-file layout (segment.go), encoding every row line into one
// buffer — the method straight from table storage, copying no row. The v2
// header indexes fixed-size, CRC-checksummed blocks so [OpenSegments] can
// serve a relation bigger than RAM from a [SegmentSet] that lazily loads
// and LRU-evicts segments under a byte budget. [ReadTyped] sniffs the
// version from the first byte and reads both.
package relstore
