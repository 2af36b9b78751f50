package lint

// deadExportAllowlist is the dead-export rule's allowlist on this repo:
// exports under internal/ that no non-test file of another package names,
// each kept for the reason given. Keys are "<package dir>.<Name>"; one name
// of a constant group stands for the group.
func deadExportAllowlist() map[string]string {
	const (
		classifierAST = "classifier-language AST node that the parser, checker and XQuery/Datalog renderers switch on"
		faultSentinel = "fault injector's sentinel error; the etl and serve fault tests match it with errors.Is"
		strategy      = "materialization strategy that coribench's A-series ablations compare (EXPERIMENTS.md)"
		planIR        = "plan-analyzer IR that plancheck.Analyze, Gate and VetPaths build internally"
		vetLevel      = "one vetting level, run by the bundle pass and vet.Study; its tests call it directly"
		codeCatalog   = "the diagnostic code catalog behind the SARIF renderer; plancheck's golden test checks codes against it"
		contributor   = "builds one synthetic contributor (Figure 4's tools); BuildAll runs it and tests build one alone"
		vocabulary    = "vocabulary of the simulated clinic that the synthetic forms and ground truth draw from"
		loadDriver    = "coribench R5/R9's open-loop load driver; merging it with bench's driver is ROADMAP item 4"
		algebra       = "relational operator of the engine's algebra that plancheck models as a plan node; no compiled plan emits it yet"
	)
	return map[string]string{
		"internal/baseline.ReferenceColumns": "output columns of the reference study that HandETL produces",
		"internal/baseline.HandETL":          "paper artifact: the hand-written ETL that Hypothesis 2 compares the generated one against (coribench H2, A2)",

		"internal/classifier.Binary":         classifierAST,
		"internal/classifier.InList":         classifierAST,
		"internal/classifier.DiscardKeyword": "the reserved rule value of the paper's cleaning classifiers",
		"internal/classifier.Lex":            "classifier-language lexer stage behind ParseRules; fuzzed on its own",
		"internal/classifier.ParseRules":     "classifier-language parser stage behind Parse; fuzzed on its own",
		"internal/classifier.ParseExpr":      "expression parser stage behind ParseRules and the checker",

		"internal/etl.CheckpointVersion":  "names the checkpoint file format version that the checkpoint golden pins",
		"internal/etl.NewContext":         "execution context that tests and experiments build to run one component directly",
		"internal/etl.ErrNoDeltaSource":   "sentinel error of a delta refresh over a contributor without a change journal; matched with errors.Is",
		"internal/etl.LoadDeltaCursorsFS": "LoadDeltaCursors through an injected FS, the seam for storage-fault tests",

		"internal/etl/faulty.ErrInjected":  faultSentinel,
		"internal/etl/faulty.ErrCrashed":   faultSentinel,
		"internal/etl/faulty.ErrNoSpace":   faultSentinel,
		"internal/etl/faulty.TearFile":     "tears a checkpoint file on purpose; the etl checkpoint tests inject it",
		"internal/etl/faulty.TearTruncate": "TearFile's tear modes",

		"internal/gtree.DeriveTool": "paper artifact: derives the g-tree of every form of one reporting tool; only tests call it",

		"internal/materialize.Catalog":   strategy,
		"internal/materialize.Strategy":  strategy,
		"internal/materialize.Full":      strategy,
		"internal/materialize.OnDemand":  strategy,
		"internal/materialize.Hot":       strategy,
		"internal/materialize.Algebraic": strategy,

		"internal/obs.ReadSpans":      "reads back WriteSpans' JSON lines; the etl trace tests use it",
		"internal/obs.ReadMetrics":    "reads back WriteMetrics' JSON lines, the inverse its round-trip test pins",
		"internal/obs.DefaultBuckets": "the bucket ladder Histogram uses when none is given",
		"internal/obs.Float":          "floating-point span attribute, beside the Int and Str constructors callers use",

		"internal/patterns.MissError":    "folds a diverting read's misses into one error for strict readers",
		"internal/patterns.NewMerge":     "paper artifact: the validating constructor of Table 1's Merge pattern; its tests use it",
		"internal/patterns.PredRewriter": "the interface a transform implements to take a pushed-down predicate; the stack type-asserts it",

		"internal/plancheck.Op":              planIR,
		"internal/plancheck.OpScan":          planIR,
		"internal/plancheck.Node":            planIR,
		"internal/plancheck.Study":           "compiles and analyzes one study spec; the vetting pass reaches it through VetPaths",
		"internal/plancheck.AnalyzeWorkflow": "analyzes one compiled workflow; Analyze and Study run it and the golden and fuzz tests call it",

		"internal/relstore.Extend": algebra,
		"internal/relstore.Rename": algebra,
		"internal/relstore.Union":  algebra,
		"internal/relstore.Pivot":  "paper artifact: the Generic (EAV) layout's write direction of Table 1; its inverse Unpivot is the production read",

		"internal/study.LossReport":     "paper artifact: the derivability report between two representations of one attribute",
		"internal/study.CheckLoss":      "paper artifact: the derivability check between two representations of one attribute",
		"internal/study.SmokingDomains": "paper artifact: the three smoking representations of Table 2",
		"internal/study.EncodeXML":      "paper artifact: renders a study schema as XML; its tests pin the rendering",

		"internal/textsrc.Compile": "compiles an extraction spec; the text layout calls it in-package and tests call it directly",
		"internal/textsrc.Render":  "renders one row as its canonical report, the layout's write direction that its round-trip tests pin",

		"internal/vet.CheckExtractSpec": vetLevel,
		"internal/vet.CheckTree":        vetLevel,
		"internal/vet.CheckDeadOptions": vetLevel,
		"internal/vet.CheckStudy":       vetLevel,
		"internal/vet.CodeInfo":         codeCatalog,
		"internal/vet.Catalog":          codeCatalog,
		"internal/vet.Info":             codeCatalog,

		"internal/workload.BuildCORI":       contributor,
		"internal/workload.BuildEndoSoft":   contributor,
		"internal/workload.BuildMedRecord":  contributor,
		"internal/workload.CORIFindingForm": "Figure 4's has-a Finding form of contributor A",
		"internal/workload.NotesSpec":       "extraction spec of the progress-note reports that BuildNotes dictates through",
		"internal/workload.ExtractRequest":  loadDriver,
		"internal/workload.ExtractRequests": loadDriver,
		"internal/workload.LoadStats":       loadDriver,
		"internal/workload.Outcome":         loadDriver,
		"internal/workload.OpenLoopOptions": loadDriver,
		"internal/workload.DriveOpenLoop":   loadDriver,
		"internal/workload.ProcedureTypes":  vocabulary,
		"internal/workload.SmokingStatus":   vocabulary,
		"internal/workload.AlcoholLevels":   vocabulary,
		"internal/workload.GenderValues":    vocabulary,
		"internal/workload.Interventions":   vocabulary,
		"internal/workload.VendorBSmoking":  vocabulary,
		"internal/workload.VendorBAlcohol":  vocabulary,
	}
}
