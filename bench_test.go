package guava

// The root benchmark harness regenerates the performance-shaped experiments
// of EXPERIMENTS.md. The paper itself reports no measured tables (it is a
// concept paper), so each bench corresponds to a design artifact whose cost
// the paper discusses:
//
//	BenchmarkPattern/*        — T1: per-pattern write/read cost
//	BenchmarkClassifierEval   — F5: classifier evaluation throughput
//	BenchmarkStudyCompile     — F6: study → ETL compilation
//	BenchmarkStudyRun/*       — F6/A3: end-to-end workflow execution scaling
//	BenchmarkStackRead/*      — A3: one whole-relation pattern-stack read per
//	                            reference contributor
//	BenchmarkMaterialize/*    — F7/A1: materialization strategies vs the
//	                            classifier/domain ratio
//	BenchmarkGeneratedVsHand  — A2: generated workflow vs expert hand ETL
//	BenchmarkGTreeQuery/*     — pattern-stack depth ablation (A3)
//	BenchmarkDeriveGTree      — H1: g-tree derivation cost
//	BenchmarkStudy1Funnel     — ST1 end to end

import (
	"context"
	"fmt"
	"testing"

	"guava/internal/baseline"
	"guava/internal/classifier"
	"guava/internal/etl"
	"guava/internal/gquery"
	"guava/internal/gtree"
	"guava/internal/materialize"
	"guava/internal/patterns"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// benchForm builds the standard pattern-bench form info and rows.
func benchForm(b *testing.B, n int) (patterns.FormInfo, []relstore.Row) {
	b.Helper()
	schema := relstore.MustSchema(
		relstore.Column{Name: "ID", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Smoking", Type: relstore.KindString},
		relstore.Column{Name: "Packs", Type: relstore.KindFloat},
		relstore.Column{Name: "Hypoxia", Type: relstore.KindBool},
		relstore.Column{Name: "Alcohol", Type: relstore.KindString},
	)
	form := patterns.FormInfo{Name: "P", KeyColumn: "ID", Schema: schema}
	rows := make([]relstore.Row, n)
	statuses := []string{"Never", "Current", "Quit"}
	for i := range rows {
		rows[i] = relstore.Row{
			relstore.Int(int64(i + 1)),
			relstore.Str(statuses[i%3]),
			relstore.Float(float64(i%10) / 2),
			relstore.Bool(i%7 == 0),
			relstore.Str(workload.AlcoholLevels[i%4]),
		}
	}
	return form, rows
}

func benchStacks() map[string]*patterns.Stack {
	return map[string]*patterns.Stack{
		"naive":    patterns.NewStack(patterns.Naive{}),
		"split":    patterns.NewStack(&patterns.Split{}),
		"generic":  patterns.NewStack(patterns.Generic{}),
		"audit":    patterns.NewStack(patterns.Naive{}, &patterns.Audit{}),
		"lookup":   patterns.NewStack(patterns.Naive{}, &patterns.Lookup{Columns: []string{"Smoking", "Alcohol"}}),
		"sentinel": patterns.NewStack(patterns.Naive{}, &patterns.Sentinel{}),
		"deep": patterns.NewStack(patterns.Generic{},
			&patterns.Audit{},
			&patterns.Rename{Physical: map[string]string{"Smoking": "f1"}},
			&patterns.Encode{},
		),
	}
}

// BenchmarkPattern measures write+read round trips per pattern stack (T1).
func BenchmarkPattern(b *testing.B) {
	const n = 500
	form, rows := benchForm(b, n)
	for name, stack := range benchStacks() {
		b.Run(name+"/write", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := relstore.NewDB("bench")
				if err := stack.Install(db, form); err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if err := stack.WriteRow(db, form, r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/read", func(b *testing.B) {
			db := relstore.NewDB("bench")
			if err := stack.Install(db, form); err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				if err := stack.WriteRow(db, form, r); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stack.Read(db, form); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassifierEval measures direct rule evaluation throughput (F5).
func BenchmarkClassifierEval(b *testing.B) {
	form, rows := benchForm(b, 2000)
	tree := benchTree(b)
	cl, err := classifier.Parse("Habits", "", classifier.Target{
		Entity: "P", Attribute: "Smoking", Domain: "D3", Kind: relstore.KindString,
		Elements: []string{"None", "Light", "Moderate", "Heavy"},
	}, `
None     <- Packs = 0
Light    <- 0 < Packs < 2
Moderate <- 2 <= Packs < 5
Heavy    <- Packs >= 5
`)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := cl.Bind(tree)
	if err != nil {
		b.Fatal(err)
	}
	rel := &relstore.Rows{Schema: form.Schema, Data: rows}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bound.ClassifyColumn(rel); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTree derives a g-tree matching benchForm's columns.
func benchTree(b *testing.B) *gtree.Tree {
	b.Helper()
	f := benchUIForm()
	tree, err := gtree.Derive("bench", 1, f)
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func benchUIForm() *Form {
	f := &Form{Name: "P", KeyColumn: "ID", Controls: []*Control{
		{Name: "Smoking", Kind: RadioList, Question: "smoking?", Options: []Option{
			{Display: "Never", Stored: Str("Never")},
			{Display: "Current", Stored: Str("Current")},
			{Display: "Quit", Stored: Str("Quit")},
		}},
		{Name: "Packs", Kind: TextBox, Question: "packs?", DataType: KindFloat},
		{Name: "Hypoxia", Kind: CheckBox, Question: "hypoxia?"},
		{Name: "Alcohol", Kind: DropDown, Question: "alcohol?", Options: []Option{
			{Display: "None", Stored: Str("None")},
			{Display: "Light", Stored: Str("Light")},
			{Display: "Moderate", Stored: Str("Moderate")},
			{Display: "Heavy", Stored: Str("Heavy")},
		}},
	}}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}

// BenchmarkDeriveGTree measures automatic g-tree derivation (H1).
func BenchmarkDeriveGTree(b *testing.B) {
	f := workload.CORIProcedureForm()
	if err := f.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtree.Derive("CORI", 1, f); err != nil {
			b.Fatal(err)
		}
	}
}

// benchContribs caches workload contributors per size.
var benchContribCache = map[int][]*workload.Contributor{}

func benchContribs(b *testing.B, n int) []*workload.Contributor {
	b.Helper()
	if cs, ok := benchContribCache[n]; ok {
		return cs
	}
	cs, err := workload.BuildAll(99, n)
	if err != nil {
		b.Fatal(err)
	}
	benchContribCache[n] = cs
	return cs
}

// BenchmarkStudyCompile measures study → ETL workflow compilation (F6).
func BenchmarkStudyCompile(b *testing.B) {
	cs := benchContribs(b, 50)
	spec, err := baseline.ReferenceSpec(cs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := etl.Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyRun measures end-to-end workflow execution as the
// per-contributor record count grows (F6 / A3 scaling); records=5000 is
// the study-sized run a full refresh pays for.
func BenchmarkStudyRun(b *testing.B) {
	for _, n := range []int{50, 200, 800, 5000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			cs := benchContribs(b, n)
			spec, err := baseline.ReferenceSpec(cs)
			if err != nil {
				b.Fatal(err)
			}
			compiled, err := etl.Compile(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compiled.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStackRead times one whole-relation read through each reference
// contributor's pattern stack at 5000 records: Stack.ReadDiverting with no
// key scope, the read each extract of a full refresh runs (A3).
func BenchmarkStackRead(b *testing.B) {
	const n = 5000
	notes, err := workload.BuildNotes(99, n)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range append(benchContribs(b, n), notes) {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Stack.ReadDiverting(context.Background(), c.DB, c.Info, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelWorkflow compares serial and parallel execution of the
// same compiled study: the per-contributor chains are independent until the
// final union (A5).
func BenchmarkParallelWorkflow(b *testing.B) {
	cs := benchContribs(b, 400)
	spec, err := baseline.ReferenceSpec(cs)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := compiled.RunResilient(context.Background(), etl.RunPolicy{}, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGeneratedVsHand compares the generated workflow with the
// hand-written expert ETL over the same data (A2). Same output, measured
// overhead factor.
func BenchmarkGeneratedVsHand(b *testing.B) {
	cs := benchContribs(b, 200)
	spec, err := baseline.ReferenceSpec(cs)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.HandETL(cs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaterialize sweeps the classifier/domain ratio (F7 / A1): as the
// number of classifiers per attribute grows, full materialization's
// footprint grows linearly while prepare/access trade off across strategies.
func BenchmarkMaterialize(b *testing.B) {
	cs := benchContribs(b, 200)
	cori := cs[0]
	rows, err := cori.Stack.Read(cori.DB, cori.Info)
	if err != nil {
		b.Fatal(err)
	}
	mkCatalog := func(perAttr int) *materialize.Catalog {
		cat := &materialize.Catalog{Base: rows, Binds: map[string]*classifier.Bound{}, AttributeOf: map[string]string{}}
		for i := 0; i < perAttr; i++ {
			// Each variant uses slightly different thresholds: same inputs,
			// different classification — the multi-classifier reality of
			// MultiClass.
			name := fmt.Sprintf("Smoking_v%02d", i)
			src := fmt.Sprintf(`
None  <- PacksPerDay = 0
Light <- 0 < PacksPerDay < %d
Heavy <- PacksPerDay >= %d
`, i+1, i+1)
			cl, err := classifier.Parse(name, "", classifier.Target{
				Entity: "Procedure", Attribute: "Smoking", Domain: name,
				Kind: relstore.KindString, Elements: []string{"None", "Light", "Heavy"},
			}, src)
			if err != nil {
				b.Fatal(err)
			}
			bound, err := cl.Bind(cori.Tree)
			if err != nil {
				b.Fatal(err)
			}
			cat.Binds[name] = bound
			cat.AttributeOf[name] = "Smoking"
		}
		return cat
	}
	for _, ratio := range []int{2, 8, 24} {
		cat := mkCatalog(ratio)
		cols := cat.Columns()
		strategies := []materialize.Strategy{
			&materialize.Full{},
			&materialize.OnDemand{},
			&materialize.Hot{HotColumns: cols[:1]},
			&materialize.Algebraic{},
		}
		for _, s := range strategies {
			s := s
			b.Run(fmt.Sprintf("ratio=%d/%s/prepare", ratio, s.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := s.Prepare(cat); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(s.StoredCells()), "cells")
			})
			b.Run(fmt.Sprintf("ratio=%d/%s/access", ratio, s.Name()), func(b *testing.B) {
				if err := s.Prepare(cat); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Column(cols[i%len(cols)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGTreeQuery ablates pattern-stack depth: the same logical query
// through progressively deeper stacks (A3).
func BenchmarkGTreeQuery(b *testing.B) {
	const n = 500
	form, rows := benchForm(b, n)
	tree := benchTree(b)
	depths := map[string]*patterns.Stack{
		"depth0": patterns.NewStack(patterns.Naive{}),
		"depth1": patterns.NewStack(patterns.Naive{}, &patterns.Audit{}),
		"depth2": patterns.NewStack(patterns.Naive{}, &patterns.Audit{}, &patterns.Encode{}),
		"depth3": patterns.NewStack(patterns.Naive{}, &patterns.Audit{}, &patterns.Encode{}, &patterns.Sentinel{}),
		"depth4": patterns.NewStack(patterns.Naive{}, &patterns.Audit{}, &patterns.Encode{}, &patterns.Sentinel{}, &patterns.Rename{Physical: map[string]string{"Smoking": "f1"}}),
	}
	for name, stack := range depths {
		b.Run(name, func(b *testing.B) {
			db := relstore.NewDB("bench")
			if err := stack.Install(db, form); err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				if err := stack.WriteRow(db, form, r); err != nil {
					b.Fatal(err)
				}
			}
			q := &gquery.Query{Tree: tree, Select: []string{"ID", "Packs"}, Where: "Smoking = 'Current'"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(context.Background(), db, stack, form); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPushdown ablates predicate pushdown: the same selective query
// with the predicate translated to the physical scan vs. filtering the fully
// reconstructed view (A4).
func BenchmarkPushdown(b *testing.B) {
	const n = 2000
	form, rows := benchForm(b, n)
	stack := patterns.NewStack(patterns.Naive{}, &patterns.Audit{}, &patterns.Lookup{Columns: []string{"Smoking", "Alcohol"}})
	db := relstore.NewDB("bench")
	if err := stack.Install(db, form); err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if err := stack.WriteRow(db, form, r); err != nil {
			b.Fatal(err)
		}
	}
	// Selective predicate: one of ten packs buckets.
	pred := relstore.And(
		relstore.Eq("Smoking", relstore.Str("Current")),
		relstore.Cmp(relstore.CmpGe, relstore.Col("Packs"), relstore.Lit(relstore.Float(4))),
	)
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := stack.QueryWithInfo(db, form, pred, []string{"ID"})
			if err != nil {
				b.Fatal(err)
			}
			if !res.PushedDown {
				b.Fatal("expected pushdown")
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stack.QueryNoPushdown(db, form, pred, []string{"ID"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStudy1Funnel measures the ST1 funnel end to end.
func BenchmarkStudy1Funnel(b *testing.B) {
	cs := benchContribs(b, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Study1(cs); err != nil {
			b.Fatal(err)
		}
	}
}
