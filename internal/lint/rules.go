package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

type emitFunc func(pos token.Pos, rule, format string, args ...any)

// --- determinism -----------------------------------------------------------

// wallClockFuncs are the time-package functions that read the wall clock.
// time.Sleep is allowed (it delays, it does not observe), as are the
// constructors (time.Date, time.Unix) which are pure.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// checkDeterminism flags wall-clock reads and math/rand imports in files
// that belong to the deterministic core: the same plan over the same data
// must produce byte-identical output, and a hidden clock or RNG read is how
// that property silently rots.
func checkDeterminism(f *srcFile, emit emitFunc) {
	for _, imp := range f.ast.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			emit(imp.Pos(), "determinism", "deterministic package imports %s; thread a seeded source in from the caller instead", path)
		}
	}
	timeName := f.localNameOf("time")
	if timeName == "" {
		return
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != timeName || !wallClockFuncs[sel.Sel.Name] {
			return true
		}
		emit(sel.Pos(), "determinism", "deterministic package reads the wall clock (time.%s); plan output must be a pure function of its inputs", sel.Sel.Name)
		return true
	})
}

// --- obs-names -------------------------------------------------------------

// metricDoc is the parsed metric registry from OBSERVABILITY.md: exact
// names plus wildcard patterns (from `<...>` segments).
type metricDoc struct {
	exact    map[string]bool
	patterns []*regexp.Regexp
}

func (d *metricDoc) allows(name string) bool {
	if d.exact[name] {
		return true
	}
	for _, p := range d.patterns {
		if p.MatchString(name) {
			return true
		}
	}
	return false
}

var backtickRe = regexp.MustCompile("`([^`]+)`")

// parseMetricDoc extracts the allowed metric names from the doc's table
// rows. A row's first cell may carry several backticked alternatives
// separated by "/": a token starting with "." shares the previous full
// token's prefix (`etl.steps.ok` / `.failed` → etl.steps.failed), and a
// `<...>` segment is a single-segment wildcard (`relstore.ops.<op>`).
func parseMetricDoc(doc string) *metricDoc {
	d := &metricDoc{exact: map[string]bool{}}
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 2 {
			continue
		}
		var prefix string
		for _, m := range backtickRe.FindAllStringSubmatch(cells[1], -1) {
			tok := m[1]
			if strings.ContainsAny(tok, " \t") {
				continue // prose like `serve.refresh <study>`, not a metric
			}
			if strings.HasPrefix(tok, ".") && prefix != "" {
				tok = prefix + tok
			} else if i := strings.LastIndex(tok, "."); i >= 0 {
				prefix = tok[:i]
			}
			if strings.Contains(tok, "<") {
				var re strings.Builder
				re.WriteString("^")
				rest := tok
				for {
					open := strings.Index(rest, "<")
					if open < 0 {
						re.WriteString(regexp.QuoteMeta(rest))
						break
					}
					clo := strings.Index(rest, ">")
					if clo < open {
						break
					}
					re.WriteString(regexp.QuoteMeta(rest[:open]))
					re.WriteString(`[A-Za-z0-9_]+`)
					rest = rest[clo+1:]
				}
				re.WriteString("$")
				if p, err := regexp.Compile(re.String()); err == nil {
					d.patterns = append(d.patterns, p)
				}
				continue
			}
			d.exact[tok] = true
		}
	}
	return d
}

// instrumentFuncs are the Registry methods that mint a named instrument.
var instrumentFuncs = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// checkObsNames flags metric-name literals that OBSERVABILITY.md does not
// carry: the doc is the operator-facing registry of record, so a counter
// born in code without a doc row is unfindable. Names built dynamically
// (non-literal arguments) are out of scope.
func checkObsNames(f *srcFile, doc *metricDoc, emit emitFunc) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !instrumentFuncs[sel.Sel.Name] {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil || name == "" {
			return true
		}
		if !doc.allows(name) {
			emit(lit.Pos(), "obs-names", "metric %q is not documented in OBSERVABILITY.md's metric table", name)
		}
		return true
	})
}

// --- mutex-guard -----------------------------------------------------------

// guardGroup is one mutex field and the fields it guards.
type guardGroup struct {
	structName string
	mutexName  string
	fields     map[string]bool
}

// checkMutexGuards enforces the guarded-field convention package-wide: the
// fields declared line-contiguously after a sync.Mutex/RWMutex field belong
// to it, and every function that touches one must take that mutex somewhere
// in its body (or be named *Locked — the documented caller-holds-the-lock
// convention). New*-named constructors are exempt: they initialize values no
// other goroutine can see yet. Attribution is by field name, so field names
// that repeat across the package's structs are skipped rather than guessed
// at.
func checkMutexGuards(pkg *srcPkg, fset *token.FileSet, emit emitFunc) {
	var groups []guardGroup
	fieldOwners := map[string]int{} // field name -> # structs declaring it
	for _, f := range pkg.files {
		syncName := f.localNameOf("sync")
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						fieldOwners[name.Name]++
					}
				}
				if syncName != "" {
					groups = append(groups, structGuards(ts.Name.Name, st, syncName, fset)...)
				}
			}
		}
	}
	if len(groups) == 0 {
		return
	}
	// A field name declared by more than one struct in the package cannot be
	// attributed syntactically; drop it from its group.
	for _, g := range groups {
		for name := range g.fields {
			if fieldOwners[name] > 1 {
				delete(g.fields, name)
			}
		}
	}

	for _, f := range pkg.files {
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || strings.HasSuffix(fn.Name.Name, "Locked") ||
				strings.HasPrefix(fn.Name.Name, "New") {
				continue
			}
			locked := map[string]bool{} // mutex field names this body locks
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
					if inner, ok := sel.X.(*ast.SelectorExpr); ok {
						locked[inner.Sel.Name] = true
					}
				}
				return true
			})
			for _, g := range groups {
				if locked[g.mutexName] {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if g.fields[sel.Sel.Name] {
						emit(sel.Pos(), "mutex-guard",
							"field %q of %s is guarded by %q (declared contiguously after it) but %s never takes that lock",
							sel.Sel.Name, g.structName, g.mutexName, fn.Name.Name)
						return false // one finding per field per function is enough
					}
					return true
				})
			}
		}
	}
}

// structGuards finds the mutex fields of one struct and their
// line-contiguous guarded groups. A group ends at the first line gap, at
// the next mutex field, or at the end of the struct.
func structGuards(structName string, st *ast.StructType, syncName string, fset *token.FileSet) []guardGroup {
	isMutex := func(t ast.Expr) bool {
		sel, ok := t.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == syncName && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
	}
	var groups []guardGroup
	fields := st.Fields.List
	for i := 0; i < len(fields); i++ {
		if !isMutex(fields[i].Type) || len(fields[i].Names) == 0 {
			continue
		}
		g := guardGroup{structName: structName, mutexName: fields[i].Names[0].Name, fields: map[string]bool{}}
		prevLine := fset.Position(fields[i].Pos()).Line
		for j := i + 1; j < len(fields); j++ {
			line := fset.Position(fields[j].Pos()).Line
			if line != prevLine+1 || isMutex(fields[j].Type) {
				break
			}
			for _, name := range fields[j].Names {
				g.fields[name.Name] = true
			}
			prevLine = line
		}
		if len(g.fields) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// --- ctx-first -------------------------------------------------------------

// checkCtxFirst enforces the context convention: an exported Run-prefixed
// function with parameters takes a context.Context first (a Run-like method
// is an execution entry point — it must be cancellable), and no function
// buries a context.Context after other parameters.
func checkCtxFirst(f *srcFile, emit emitFunc) {
	ctxName := f.localNameOf("context")
	isCtx := func(t ast.Expr) bool {
		if ctxName == "" {
			return false
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == ctxName && sel.Sel.Name == "Context"
	}
	for _, decl := range f.ast.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Type.Params == nil {
			continue
		}
		params := fn.Type.Params.List
		// Burying a context after other parameters is always wrong.
		for i, p := range params {
			if i > 0 && isCtx(p.Type) {
				emit(p.Pos(), "ctx-first", "%s takes a context.Context at position %d; contexts come first", fn.Name.Name, i)
			}
		}
		name := fn.Name.Name
		runLike := name == "Run" || (strings.HasPrefix(name, "Run") && len(name) > 3 &&
			name[3] >= 'A' && name[3] <= 'Z')
		if !runLike || !ast.IsExported(name) || len(params) == 0 {
			continue
		}
		if !isCtx(params[0].Type) {
			emit(fn.Pos(), "ctx-first", "exported %s takes parameters but no leading context.Context; Run-like methods must be cancellable", name)
		}
	}
}

// --- dead-export -----------------------------------------------------------

// deadExportIgnored are the root-relative directories whose references do
// not keep an export alive: a benchmark harness is not a production caller.
var deadExportIgnored = []string{"cmd/coribench", "bench"}

// checkDeadExports flags exported top-level funcs, types, vars and consts
// of packages under internal/ that no non-test file of another package
// references — code that only its own package, a test or a benchmark
// exercises. The facade, cmd/ and examples/ count as callers; the
// deadExportIgnored dirs do not. Methods are out of scope. A type also
// counts as referenced when it appears in the signature of a referenced
// func, or in the exported fields or exported method signatures of a
// referenced type: callers hold its values without naming it. The
// constants of one parenthesized group count as one declaration, so an
// enum stays whole while any of its values, or the type it declares them
// with, is referenced. allow exempts "<dir>.<Name>" entries (any one name
// of a constant group exempts the group), each with its reason.
func checkDeadExports(pkgs []*srcPkg, module string, allow map[string]string, emit emitFunc) {
	used := map[string]bool{} // "<import path>.<Name>"
	for _, pkg := range pkgs {
		if ignoredCaller(pkg.relDir) {
			continue
		}
		for _, f := range pkg.files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && f.imports[id.Name] != "" {
						used[f.imports[id.Name]+"."+sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.relDir, "internal/") {
			continue
		}
		path := module + "/" + pkg.relDir
		reachThroughAPI(pkg, path, used)

		// check flags a declaration none of whose names is referenced or
		// allowlisted.
		check := func(pos token.Pos, names []*ast.Ident) {
			var dead []string
			for _, id := range names {
				if !id.IsExported() {
					continue
				}
				if _, ok := allow[pkg.relDir+"."+id.Name]; ok || used[path+"."+id.Name] {
					return
				}
				dead = append(dead, id.Name)
			}
			if len(dead) > 0 {
				emit(pos, "dead-export", "%s.%s has no non-test caller outside its package; delete it, unexport it, or allowlist it with a reason",
					pkg.relDir[strings.LastIndex(pkg.relDir, "/")+1:], strings.Join(dead, ", "))
			}
		}
		for _, f := range pkg.files {
			if f.ast.Name.Name == "main" {
				continue
			}
			for _, decl := range f.ast.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						check(d.Name.Pos(), []*ast.Ident{d.Name})
					}
				case *ast.GenDecl:
					var group []*ast.Ident
					typeUsed := false // the group declares its values with a referenced type
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name.Pos(), []*ast.Ident{s.Name})
						case *ast.ValueSpec:
							if d.Tok == token.CONST && d.Lparen.IsValid() {
								group = append(group, s.Names...)
								if t, ok := s.Type.(*ast.Ident); ok && used[path+"."+t.Name] {
									typeUsed = true
								}
								continue
							}
							for _, id := range s.Names {
								check(id.Pos(), []*ast.Ident{id})
							}
						}
					}
					if len(group) > 0 && !typeUsed {
						check(d.Pos(), group)
					}
				}
			}
		}
	}
}

// reachThroughAPI marks used, under pkg's import path, every type of pkg
// that a referenced func's signature, or a referenced type's exported
// fields and exported method signatures, names — transitively.
func reachThroughAPI(pkg *srcPkg, path string, used map[string]bool) {
	types := map[string]*ast.TypeSpec{}
	funcs := map[string]*ast.FuncDecl{}
	methods := map[string][]*ast.FuncDecl{} // receiver type -> exported methods
	for _, f := range pkg.files {
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					funcs[d.Name.Name] = d
				} else if recv := recvType(d.Recv.List[0].Type); recv != "" && d.Name.IsExported() {
					methods[recv] = append(methods[recv], d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						types[ts.Name.Name] = ts
					}
				}
			}
		}
	}
	var queue []string
	for name := range funcs {
		if used[path+"."+name] {
			queue = append(queue, name)
		}
	}
	for name := range types {
		if used[path+"."+name] {
			queue = append(queue, name)
		}
	}
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		var api []ast.Node
		if fn, ok := funcs[name]; ok {
			api = append(api, fn.Type)
		}
		if ts, ok := types[name]; ok {
			if st, isStruct := ts.Type.(*ast.StructType); isStruct {
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 || field.Names[0].IsExported() {
						api = append(api, field.Type)
					}
				}
			} else {
				api = append(api, ts.Type)
			}
			for _, m := range methods[name] {
				api = append(api, m.Type)
			}
		}
		for _, n := range api {
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					return false // another package's name
				case *ast.Ident:
					if _, ok := types[x.Name]; ok && !used[path+"."+x.Name] {
						used[path+"."+x.Name] = true
						queue = append(queue, x.Name)
					}
				}
				return true
			})
		}
	}
}

// recvType returns the type name of a method receiver expression.
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// ignoredCaller reports whether references from dir do not count as callers.
func ignoredCaller(dir string) bool {
	for _, d := range deadExportIgnored {
		if dir == d || strings.HasPrefix(dir, d+"/") {
			return true
		}
	}
	return false
}
