//go:build !rowcheck

package relstore

// rowCheck is the stored-row guard the rowcheck build tag turns on (see
// rowcheck.go). In the default build it holds nothing and every hook
// compiles to nothing.
type rowCheck struct{}

func (*rowCheck) record(string, Row)      {}
func (*rowCheck) forget(Row)              {}
func (*rowCheck) verify(string, Row)      {}
func (*rowCheck) verifyAll(string, []Row) {}
func (*rowCheck) clone() rowCheck         { return rowCheck{} }

func verifyTable(*Table) {}
