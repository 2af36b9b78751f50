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
// The same rule lets an operator that would only copy return its input
// rows. [Project] over the input's own columns in order returns them in a
// new [Rows] that shares the slice, and patterns.Conform does the same
// when the columns already stand in the target order and every cell is
// NULL or of its column's kind, so a pattern stack whose transforms only
// reorder, and a study output that is already conformed, cost no row
// copies. A caller that compacts or reorders a result slice in place
// must therefore know it owns it: the layouts' reads and [Select] always
// return a fresh one.
//
// # Cells
//
// A [Value] is 32 bytes: a string header, a uint64 holding an INTEGER's
// bits, a REAL's math.Float64bits (so -0 and NaN payloads survive) or a
// BOOLEAN's 0 or 1, and the kind. A 24-byte cell, a data pointer read
// through unsafe.String, measured within noise of it, so relstore uses no
// unsafe. A narrower cell shrinks the live heap, but Go starts a
// collection each time the heap grows by its live size, and a cycle's mark
// work follows objects and pointers, not bytes: a smaller heap alone means
// more cycles for the same garbage. So [Table.Update] moves a replaced
// row's ID between index buckets only where its cell's hkey changed,
// instead of rebuilding every index, and a writer batch's garbage no
// longer grows with the table.
//
// # Hash keys
//
// [Join], [Unpivot] and a bound IN list hash an unexported comparable key
// (hkey) computed without allocating: a number is keyed by its float64
// bits, with -0 folded into +0 and every NaN sharing one key, a string by
// its bytes and a bool by its value. a.Equal(b) implies that a and b share
// a key, but not the converse: an int past 2^53 shares its float64
// neighbour's key, and NaN shares one key without being Equal to itself.
// So every hit is re-checked with [Value.Equal]: Join matches the right
// rows whose key cell is Equal to the left one (NULL never joins), Unpivot
// folds a row into the first earlier group whose key cells are pairwise
// Equal to its own, and col IN (list) holds exactly when [Pred.Eval] says
// so, NULL IN (NULL) included.
//
// # Access paths
//
// A predicate scan whose conjuncts offer an access path tests only its
// candidates: a superset of the matches, each tested with the whole
// predicate, so the rows and their order are a scan's, though a row the
// predicate would fail on with an error may be skipped. A hash index keys
// buckets by hkey, re-checks every hit with Equal, and answers = and IN. The ordered prefix [Table.Order] leaves answers
// those and <, <=, >, >= on its leading column by binary search, plus every
// row appended since; the path with fewer candidates wins. The column must
// be INTEGER, TEXT or BOOLEAN, which [Value.Compare] orders totally: a REAL
// column's Ints past 2^53 and NaNs let an ordered prefix read 3, NaN, 1.
//
// # Execution
//
// Every predicate scan — [Select], [Table.Select], [Table.SelectPage],
// [Table.Delete] and [Table.Update] — binds its predicate to the schema once
// (column names resolved to positions) and tests each row with exactly
// [Pred.Eval]'s semantics, AND/OR short-circuit and errors included.
// [Derive], [Extend] and [BindDerive] bind their expressions the same way,
// CASE guards through the predicate binder, and give each row exactly
// [Expr.Eval]'s value or error. Every other operator is a plain loop. Parallelism lives one level
// up, in the ETL executor, which runs independent workflow steps at once.
//
// # Durable format
//
// Relations serialize in a typed line format (serial.go) that round-trips
// bit for bit. [AppendRowJSON] is the one row encoder: it appends a row's
// kind-tagged JSON line to a byte buffer, byte-identical to what
// encoding/json renders and without allocating for plain rows, leaving
// escaped strings to json.Marshal. [WriteTyped] emits the v1 layout — a
// schema line, then one row line each — which is the only layout
// generations and warehouses write; given [Table.Rows] it encodes the
// stored rows themselves, copying only the slice that references them.
// [ReadTyped] sniffs the version from the first byte and also reads the
// older v2 segment-file layout (segment.go), checking every segment's
// CRC and row count, so files written before v1 became the only layout
// still load.
package relstore
