package workload

import (
	"fmt"

	"guava/internal/gtree"
	"guava/internal/patterns"
	"guava/internal/relstore"
	"guava/internal/ui"
)

// Contributor is one fully built data source: its tool's forms, the derived
// g-trees, the pattern stack, a populated physical database, and the ground
// truth that went in through the UI.
type Contributor struct {
	Name   string
	DB     *relstore.DB
	Stack  *patterns.Stack
	Form   *ui.Form
	Info   patterns.FormInfo
	Tree   *gtree.Tree
	Truths []Truth

	// Finding artifacts are populated for contributors whose tool records
	// findings (contributor A).
	FindingForm  *ui.Form
	FindingInfo  patterns.FormInfo
	FindingStack *patterns.Stack
	FindingTree  *gtree.Tree

	// enter is the tool's data-entry mapping, retained so post-build
	// mutations (see mutate.go) insert new records through the same UI
	// path the initial population used.
	enter entryFn
}

// entryFn maps one ground-truth record onto one tool's form controls.
type entryFn func(e *ui.Entry, t Truth) error

// build assembles a contributor: validate the form, derive the g-tree,
// install the stack, and enter every truth record through the UI.
func build(name string, form *ui.Form, stack *patterns.Stack, truths []Truth, enter entryFn) (*Contributor, error) {
	if err := form.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	tree, err := gtree.Derive(name, 1, form)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	info, err := patterns.FromUIForm(form)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	// Every workload stack journals its writes so studies over these
	// contributors can refresh incrementally (a delta etl.Compiled.Refresh).
	stack.Journal = patterns.NewJournal()
	db := relstore.NewDB(name)
	if err := stack.Install(db, info); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	sink := &patterns.Sink{DB: db, Stack: stack}
	for _, t := range truths {
		e, err := ui.NewEntry(form, t.ID)
		if err != nil {
			return nil, fmt.Errorf("workload: %s record %d: %w", name, t.ID, err)
		}
		if err := enter(e, t); err != nil {
			return nil, fmt.Errorf("workload: %s record %d: %w", name, t.ID, err)
		}
		if err := e.Submit(sink); err != nil {
			return nil, fmt.Errorf("workload: %s record %d: %w", name, t.ID, err)
		}
	}
	return &Contributor{Name: name, DB: db, Stack: stack, Form: form, Info: info, Tree: tree, Truths: truths, enter: enter}, nil
}

// InsertTruth enters one new ground-truth record through the tool's UI, the
// same path the initial population used (findings are not entered — only the
// procedure form). The record is appended to Truths.
func (c *Contributor) InsertTruth(t Truth) error {
	e, err := ui.NewEntry(c.Form, t.ID)
	if err != nil {
		return fmt.Errorf("workload: %s record %d: %w", c.Name, t.ID, err)
	}
	if err := c.enter(e, t); err != nil {
		return fmt.Errorf("workload: %s record %d: %w", c.Name, t.ID, err)
	}
	sink := &patterns.Sink{DB: c.DB, Stack: c.Stack}
	if err := e.Submit(sink); err != nil {
		return fmt.Errorf("workload: %s record %d: %w", c.Name, t.ID, err)
	}
	c.Truths = append(c.Truths, t)
	return nil
}

// SetField changes one naive-schema column of an existing record, routed
// through the contributor's pattern stack (and journaled when it lands).
func (c *Contributor) SetField(key relstore.Value, col string, v relstore.Value) (int, error) {
	return c.Stack.Update(c.DB, c.Info, key, col, v)
}

// DeprecateRecord marks a record deleted through the stack's Audit layer.
func (c *Contributor) DeprecateRecord(key relstore.Value) (int, error) {
	return c.Stack.Deprecate(c.DB, c.Info, key)
}

// CanDeprecate reports whether the contributor's stack carries an Audit
// transform — without one records cannot be logically deleted.
func (c *Contributor) CanDeprecate() bool {
	for _, t := range c.Stack.Transforms {
		if _, ok := t.(*patterns.Audit); ok {
			return true
		}
	}
	return false
}

// MaxID returns the highest ground-truth record ID entered so far.
func (c *Contributor) MaxID() int64 {
	var max int64
	for _, t := range c.Truths {
		if t.ID > max {
			max = t.ID
		}
	}
	return max
}

// set is a small helper that aborts on the first UI error.
type setter struct {
	e   *ui.Entry
	err error
}

func (s *setter) set(name string, v relstore.Value) {
	if s.err != nil {
		return
	}
	s.err = s.e.Set(name, v)
}

func (s *setter) setBool(name string, b bool) { s.set(name, relstore.Bool(b)) }

// BuildCORI builds contributor A: the reference CORI-like tool over a
// Lookup ∘ Audit ∘ Naive stack, plus the Finding child form over Naive.
func BuildCORI(seed int64, n int) (*Contributor, error) {
	truths := Generate(seed, n)
	stack := patterns.NewStack(patterns.Naive{},
		&patterns.Audit{},
		&patterns.Lookup{Columns: []string{"Indication", "ProcType", "Alcohol"}},
	)
	c, err := build("CORI", CORIProcedureForm(), stack, truths, func(e *ui.Entry, t Truth) error {
		s := &setter{e: e}
		s.set("Age", relstore.Int(t.Age))
		s.set("Gender", relstore.Str(t.Gender))
		s.set("Indication", relstore.Str(t.Indication))
		s.set("ProcType", relstore.Str(t.ProcType))
		s.setBool("RenalFailure", t.RenalFailure)
		s.set("Smoking", relstore.Str(t.Smoking))
		switch t.Smoking {
		case "Current":
			s.set("PacksPerDay", relstore.Float(t.PacksPerDay))
		case "Quit":
			s.set("QuitYearsAgo", relstore.Int(t.QuitYearsAgo))
		}
		s.set("Alcohol", relstore.Str(t.Alcohol))
		s.setBool("CardioWNL", t.CardioWNL)
		s.setBool("AbdoWNL", t.AbdoWNL)
		s.setBool("TransientHypoxia", t.TransientHypoxia)
		s.setBool("ProlongedHypoxia", t.ProlongedHypoxia)
		s.setBool("Bleeding", t.Bleeding)
		s.setBool("Surgery", t.Surgery)
		s.setBool("IVFluids", t.IVFluids)
		s.setBool("Oxygen", t.Oxygen)
		return s.err
	})
	if err != nil {
		return nil, err
	}
	// Finding child form, naive layout.
	ff := CORIFindingForm()
	if err := ff.Validate(); err != nil {
		return nil, err
	}
	ftree, err := gtree.Derive("CORI", 1, ff)
	if err != nil {
		return nil, err
	}
	finfo, err := patterns.FromUIForm(ff)
	if err != nil {
		return nil, err
	}
	fstack := patterns.NewStack(patterns.Naive{})
	if err := fstack.Install(c.DB, finfo); err != nil {
		return nil, err
	}
	fsink := &patterns.Sink{DB: c.DB, Stack: fstack}
	for _, t := range truths {
		for _, f := range t.Findings {
			e, err := ui.NewEntry(ff, f.ID)
			if err != nil {
				return nil, err
			}
			s := &setter{e: e}
			s.set("ProcedureRef", relstore.Int(f.ProcedureID))
			s.set("Size", relstore.Int(f.SizeMM))
			s.setBool("ImagesTaken", f.ImagesTaken)
			if s.err != nil {
				return nil, s.err
			}
			if err := e.Submit(fsink); err != nil {
				return nil, err
			}
		}
	}
	c.FindingForm, c.FindingInfo, c.FindingStack, c.FindingTree = ff, finfo, fstack, ftree
	return c, nil
}

// endoSoftReason maps the canonical indication onto EndoSoft's wording.
var endoSoftReason = map[string]string{
	"Asthma-specific ENT/Pulmonary Reflux symptoms": "Reflux-associated asthma symptoms",
	"Dysphagia":                          "Difficulty swallowing",
	"GI Bleeding":                        "GI bleed",
	"Abdominal Pain":                     "Abdominal pain",
	"Surveillance - Barrett's Esophagus": "Barrett's surveillance",
	"Anemia":                             "Anemia workup",
	"Screening":                          "Routine screening",
}

// endoSoftExam maps the canonical procedure type onto EndoSoft's wording.
var endoSoftExam = map[string]string{
	"Upper GI Endoscopy":     "EGD",
	"Colonoscopy":            "Colonoscopy",
	"Flexible Sigmoidoscopy": "Flex Sig",
}

// endoSoftSmoking maps the canonical status onto EndoSoft's vocabulary.
var endoSoftSmoking = map[string]string{
	"Never": "Non-smoker", "Current": "Smoker", "Quit": "Ex-smoker",
}

// endoSoftEtoh coarsens the four canonical alcohol levels onto EndoSoft's
// three buckets — deliberate vocabulary loss at one contributor.
var endoSoftEtoh = map[string]string{
	"None": "0", "Light": "<7/wk", "Moderate": ">=7/wk", "Heavy": ">=7/wk",
}

// BuildEndoSoft builds contributor B: different wording, cigarettes instead
// of packs, and a Sentinel ∘ Delimited ∘ Split physical stack.
func BuildEndoSoft(seed int64, n int) (*Contributor, error) {
	truths := Generate(seed, n)
	stack := patterns.NewStack(&patterns.Split{},
		&patterns.Delimited{Into: "tx_packed", Columns: []string{"TxSurgery", "TxFluids", "TxOxygen"}},
		&patterns.Sentinel{},
	)
	return build("EndoSoft", EndoSoftExamForm(), stack, truths, func(e *ui.Entry, t Truth) error {
		s := &setter{e: e}
		s.set("PatientAge", relstore.Int(t.Age))
		sex := "Female"
		if t.Gender == "M" {
			sex = "Male"
		}
		s.set("Sex", relstore.Str(sex))
		s.set("Reason", relstore.Str(endoSoftReason[t.Indication]))
		s.set("ExamType", relstore.Str(endoSoftExam[t.ProcType]))
		s.setBool("RenalDisease", t.RenalFailure)
		s.set("SmokingStatus", relstore.Str(endoSoftSmoking[t.Smoking]))
		switch t.Smoking {
		case "Current":
			s.set("CigsPerDay", relstore.Int(int64(t.PacksPerDay*20)))
		case "Quit":
			s.set("YearsSinceQuit", relstore.Int(t.QuitYearsAgo))
		}
		s.set("ETOH", relstore.Str(endoSoftEtoh[t.Alcohol]))
		s.setBool("CardioNormal", t.CardioWNL)
		s.setBool("AbdoNormal", t.AbdoWNL)
		s.setBool("O2Desat", t.TransientHypoxia)
		s.setBool("O2DesatProlonged", t.ProlongedHypoxia)
		yn := func(b bool) relstore.Value {
			if b {
				return relstore.Str("Yes")
			}
			return relstore.Str("No")
		}
		s.set("TxSurgery", yn(t.Surgery))
		s.set("TxFluids", yn(t.IVFluids))
		s.set("TxOxygen", yn(t.Oxygen))
		return s.err
	})
}

// medRecordSmoke maps the canonical status onto MedRecord's integer codes.
var medRecordSmoke = map[string]int64{"Never": 0, "Current": 1, "Quit": 2}

// medRecordEtoh maps the canonical alcohol level onto MedRecord's codes.
var medRecordEtoh = map[string]int64{"None": 0, "Light": 1, "Moderate": 2, "Heavy": 3}

// medRecordProc maps the canonical procedure type onto MedRecord's codes.
var medRecordProc = map[string]int64{
	"Upper GI Endoscopy": 10, "Colonoscopy": 20, "Flexible Sigmoidoscopy": 30,
}

// BuildMedRecord builds contributor C: integer-coded answers behind a
// Rename ∘ Encode ∘ Audit ∘ Generic (EAV) stack — the hardest physical
// layout in Table 1.
func BuildMedRecord(seed int64, n int) (*Contributor, error) {
	truths := Generate(seed, n)
	stack := patterns.NewStack(patterns.Generic{},
		&patterns.Audit{},
		&patterns.Rename{Physical: map[string]string{
			"AgeYears": "fld_001", "SexCode": "fld_002", "IndicationText": "fld_003",
			"ProcCode": "fld_004", "SmokeCode": "fld_010", "PacksDaily": "fld_011",
			"QuitYears": "fld_012", "EtohCode": "fld_013",
		}},
		&patterns.Encode{TrueCode: "1", FalseCode: "0"},
	)
	return build("MedRecord", MedRecordForm(), stack, truths, func(e *ui.Entry, t Truth) error {
		s := &setter{e: e}
		s.set("AgeYears", relstore.Int(t.Age))
		var sex int64
		if t.Gender == "M" {
			sex = 1
		}
		s.set("SexCode", relstore.Int(sex))
		s.set("IndicationText", relstore.Str(t.Indication))
		s.set("ProcCode", relstore.Int(medRecordProc[t.ProcType]))
		s.set("SmokeCode", relstore.Int(medRecordSmoke[t.Smoking]))
		switch t.Smoking {
		case "Current":
			s.set("PacksDaily", relstore.Float(t.PacksPerDay))
		case "Quit":
			s.set("QuitYears", relstore.Int(t.QuitYearsAgo))
		}
		s.set("EtohCode", relstore.Int(medRecordEtoh[t.Alcohol]))
		s.setBool("RenalHx", t.RenalFailure)
		s.setBool("CardioOK", t.CardioWNL)
		s.setBool("AbdoOK", t.AbdoWNL)
		s.setBool("HypoxiaT", t.TransientHypoxia)
		s.setBool("HypoxiaP", t.ProlongedHypoxia)
		s.setBool("TxSurg", t.Surgery)
		s.setBool("TxIVF", t.IVFluids)
		s.setBool("TxO2", t.Oxygen)
		return s.err
	})
}

// BuildAll builds the three contributors over disjoint patient populations
// (distinct seeds), sized n records each.
func BuildAll(seed int64, n int) ([]*Contributor, error) {
	a, err := BuildCORI(seed, n)
	if err != nil {
		return nil, err
	}
	b, err := BuildEndoSoft(seed+1, n)
	if err != nil {
		return nil, err
	}
	c, err := BuildMedRecord(seed+2, n)
	if err != nil {
		return nil, err
	}
	return []*Contributor{a, b, c}, nil
}
