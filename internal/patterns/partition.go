package patterns

import (
	"context"
	"fmt"

	"guava/internal/relstore"
)

// Partitioned horizontally partitions a base layout: records route to one of
// N partitions by key, each partition holding a full copy of the base
// layout's table design (suffix "_p<i>"). Clinics and multi-site reporting
// tools shard physical tables this way by site or time period; reading a
// form unions the per-partition reads.
type Partitioned struct {
	// Base is the layout replicated per partition.
	Base Layout
	// N is the partition count (at least 1).
	N int
}

// Name implements Layout.
func (p *Partitioned) Name() string { return fmt.Sprintf("Partitioned(%d)×%s", p.N, p.Base.Name()) }

// Describe implements Layout.
func (p *Partitioned) Describe() string {
	return fmt.Sprintf("Rows are horizontally partitioned across %d copies of the %s layout by form key; reading unions the partitions.", p.N, p.Base.Name())
}

func (p *Partitioned) check() error {
	if p.N < 1 {
		return fmt.Errorf("patterns: partitioned layout needs N >= 1, got %d", p.N)
	}
	return nil
}

func (p *Partitioned) partForm(form FormInfo, i int) FormInfo {
	return FormInfo{Name: fmt.Sprintf("%s_p%d", form.Name, i), KeyColumn: form.KeyColumn, Schema: form.Schema}
}

func (p *Partitioned) route(form FormInfo, key relstore.Value) (int, error) {
	if key.Kind() != relstore.KindInt {
		return 0, fmt.Errorf("patterns: partitioned layout requires integer keys, got %s", key)
	}
	k := key.AsInt() % int64(p.N)
	if k < 0 {
		k += int64(p.N)
	}
	return int(k), nil
}

// Install implements Layout.
func (p *Partitioned) Install(db *relstore.DB, form FormInfo) error {
	if err := p.check(); err != nil {
		return err
	}
	for i := 0; i < p.N; i++ {
		if err := p.Base.Install(db, p.partForm(form, i)); err != nil {
			return err
		}
	}
	return nil
}

// Write implements Layout.
func (p *Partitioned) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	if err := p.check(); err != nil {
		return err
	}
	key := row[form.Schema.Index(form.KeyColumn)]
	i, err := p.route(form, key)
	if err != nil {
		return err
	}
	return p.Base.Write(db, p.partForm(form, i), row)
}

// Read implements Layout: every partition's base read gets the same where
// and miss sink, and the results union. The read is exact when every
// partition's is.
func (p *Partitioned) Read(ctx context.Context, db *relstore.DB, form FormInfo, where relstore.Pred, miss func(SourceMiss)) (*relstore.Rows, bool, error) {
	if err := p.check(); err != nil {
		return nil, false, err
	}
	parts := make([]*relstore.Rows, 0, p.N)
	exact := true
	for i := 0; i < p.N; i++ {
		r, ok, err := p.Base.Read(ctx, db, p.partForm(form, i), where, miss)
		if err != nil {
			return nil, false, err
		}
		exact = exact && ok
		// Conform column order across partitions before union.
		r, err = relstore.Project(r, form.Schema.Names()...)
		if err != nil {
			return nil, false, err
		}
		parts = append(parts, r)
	}
	rows, err := relstore.UnionAll(parts...)
	if err != nil {
		return nil, false, err
	}
	return rows, exact, nil
}

// Update implements Layout.
func (p *Partitioned) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	if err := p.check(); err != nil {
		return 0, err
	}
	i, err := p.route(form, key)
	if err != nil {
		return 0, err
	}
	return p.Base.Update(db, p.partForm(form, i), key, col, v)
}

// PhysicalTables implements Layout.
func (p *Partitioned) PhysicalTables(form FormInfo) []string {
	var out []string
	for i := 0; i < p.N; i++ {
		out = append(out, p.Base.PhysicalTables(p.partForm(form, i))...)
	}
	return out
}
