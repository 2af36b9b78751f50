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
// # Execution
//
// Every predicate scan — [Select], [Table.Select], [Table.SelectPage],
// [Table.Delete] and [Table.Update] — binds its predicate to the schema once
// (column names resolved to positions) and tests each row with exactly
// [Pred.Eval]'s semantics, AND/OR short-circuit and errors included; every
// other operator is a plain sequential loop. Parallelism lives one level
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
