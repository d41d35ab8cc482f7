package exp_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the internal/ functions, methods and packages that no
// non-test code of the module references, each with the reason it stays.
// Keys are types.Func.FullName, or a package's import path, with the module
// path trimmed.
var callerAllowlist = map[string]string{
	// The paper's constructions that only tests run.
	"internal/monitor.Stabilize":      "Figure 2 (Lemma 4.1), run by the monitor package's theorem tests",
	"internal/monitor.AmplifyWOD":     "Figure 4 (Lemma 4.3), run by the monitor package's theorem tests",
	"internal/monitor.ThreeValuedWEC": "Section 7's three-valued baseline for WEC_COUNT, run by the monitor package's tests",
	"internal/monitor.ThreeValuedSEC": "Section 7's three-valued baseline for SEC_COUNT, run by the monitor package's tests",
	"internal/sched.Script":           "scripted schedules of the proof constructions, used by the sched and mem tests",

	// The one-shot search and the packages only the benchmark harness (its own
	// module) imports.
	"internal/check.Linearizable":       "one-shot search: the reference the checker tests of several packages compare against; bench/probe.go times its LinearizableOps",
	"internal/check.SeqConsistent":      "one-shot search: the reference the checker tests of several packages compare against",
	"internal/spec":                     "imported only by bench/probe.go",
	"internal/experiment.DefaultParams": "the full-depth parameters of bench/table1.go, drvtable's tests and the root reproduction test",
	"internal/experiment.ShortParams":   "the short parameters of bench/table1.go, drvtable's tests and the root reproduction test",
	"internal/experiment.Table1":        "one-call Table 1 for the root reproduction test and the experiment tests",
	"internal/explore.ShrinkBugSpec":    "bench/explore.go shrinks a seeded bug with it, and the explore tests pin it",

	// Helpers other packages' tests need.
	"(*internal/adversary.Timed).InnerHistory": "the sut tests compare the wrapped service's history with the timed one",
	"(*internal/check.ECLedger).Len":           "the monitor board tests read how far the checker was fed",
	"(*internal/check.Incremental).Len":        "the monitor board tests read how far the checker was fed",
	"(*internal/sched.Runtime).Crashed":        "the check package's differential runs crash a process once",
	"(*internal/sched.Runtime).Run":            "the step loop the sched, mem, adversary and monitor tests drive",
	"(*internal/msgnet.Net).Inbox":             "the abd tests bound how many messages a process's inboxes hold",
	"internal/check.SearchNodes":               "the explore tests bound the residual-search masters' search nodes with it",
	"internal/sched.VerifyRunnable":            "the maintained ≡ polled runnable-set differential, which the sched, msgnet, adversary, abd, experiment and explore tests switch on",
}

// TestEveryInternalFuncHasAProductionCaller guards against code only tests
// reach: every package under internal/ must be imported by another package of
// the module, and every top-level function and method declared there must be
// referenced by non-test code of the module outside its own declaration, or
// each must be on callerAllowlist with a reason. References resolve by object
// through go/types, so a method cannot hide behind a same-named method of
// another type. A method also counts as referenced when non-test code converts a
// value of its receiver type to an interface holding that method, or to an
// empty interface for the methods fmt finds dynamically (String, Error).
// An allowlist entry that is referenced after all is stale and fails too.
func TestEveryInternalFuncHasAProductionCaller(t *testing.T) {
	m, err := loadModule("..")
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, key := range append(m.unimported("internal/"), m.unreferenced("internal/")...) {
		if _, ok := callerAllowlist[key]; !ok {
			t.Errorf("%s has no caller in non-test code; delete it, move it into a _test.go file, or allowlist it with a reason", key)
			continue
		}
		covered[key] = true
	}
	for entry, reason := range callerAllowlist {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s gives no reason", entry)
		case !covered[entry]:
			t.Errorf("allowlist entry %s covers nothing unreferenced; remove it", entry)
		}
	}
}

// exportAllowlist names the exported exp/ functions and methods that no
// other package's non-test code references and no runnable Example
// documents, each with the reason it stays. Keys are types.Func.FullName,
// with the module path trimmed.
var exportAllowlist = map[string]string{
	// The benchmark harness is its own module, which the guard cannot load.
	"exp/monitor.Run":             "bench/ imports it (bench/gen_test.go replays its histories with it)",
	"(*exp/monitor.Recorder).Len": "bench/ imports it (bench/gen.go sizes its recorded histories with it)",
	"(*exp/trace.Result).Triples": "bench/ imports it (bench/probe.go times BuildSketch over a run's triples)",
	"exp/trace.BuildSketch":       "bench/ imports it (bench/probe.go times it)",
	"exp/trace.IsWellFormed":      "bench/ imports it (bench/gen_test.go checks its generated histories with it)",

	// Helpers and references other packages' tests need.
	"(exp/trace.Operation).ConcurrentWith": "the internal/sketch tests check that the sketch keeps two operations overlapping with it",
	"(exp/trace.View).Comparable":          "the internal/adversary tests check that Aτ's views form a chain with it",
	"(exp/trace.View).Contains":            "the internal/adversary tests check that each view holds its own operation with it",
	"(exp/trace.View).Diff":                "the internal/adversary tests enumerate a view's new operations with it",
	"(exp/trace.View).Key":                 "the internal/adversary and internal/monitor tests compare views by it",
	"(exp/trace.View).Leq":                 "the internal/adversary tests check views' containment order with it",
	"(exp/trace.View).Total":               "the internal/adversary and internal/monitor tests order views by it",
	"(*exp/trace.Writer).WriteVerdict":     "the exp/monitor tests write verdict transcripts with it, which Read parses back",
	"exp/trace.Vector":                     "the snapshot specification the internal/mem tests check the snapshot protocols against",
	"exp/trace.OpUpd":                      "names the Vector updates the internal/mem tests record",

	// fmt.Stringer methods: fmt calls them on values of their own package.
	"(exp/monitor.Array).String": "fmt.Stringer: ParseArray reads the name it prints, and parse's constraint needs it",
	"(exp/trace.View).String":    "fmt.Stringer: the sketch errors print views through it",
}

// TestEveryExpExportHasAnOutsideUse extends the guard to exp/, which carries
// no compatibility promise (exp/README.md): an exported function of an exp
// package, or an exported method of one of its exported types, counts as
// used when non-test code of another package of the module references it,
// or when a runnable Example of its package documents it by name. Anything
// else must be deleted, unexported, or on exportAllowlist with a reason; a
// stale entry fails too. Types, variables and constants are the vocabulary
// the exported signatures and values speak in, and are not checked.
func TestEveryExpExportHasAnOutsideUse(t *testing.T) {
	m, err := loadModule("..")
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	unused, err := m.unusedExports("exp/")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range unused {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s has no use outside its package and no runnable Example; delete it, unexport it, or allowlist it with a reason", key)
			continue
		}
		covered[key] = true
	}
	for entry, reason := range exportAllowlist {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s gives no reason", entry)
		case !covered[entry]:
			t.Errorf("allowlist entry %s covers nothing unused; remove it", entry)
		}
	}
}

// module is the root module's non-test code, type-checked package by
// package into one shared types.Info.
type module struct {
	path, root string
	fset       *token.FileSet
	std        types.Importer
	info       *types.Info
	pkgs       map[string]*types.Package
	files      map[string][]*ast.File
	pkgOf      map[*token.File]string // each loaded file's import path
	order      []string               // import paths in load order
}

// loadModule type-checks every package of the module rooted at root, skipping
// nested modules, testdata and hidden directories. Standard-library imports
// come from go/importer's source importer.
func loadModule(root string) (*module, error) {
	path, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &module{
		path: path, root: root, fset: fset,
		std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		pkgOf: map[*token.File]string{},
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); dir != root && err == nil {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		imp := path
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = m.load(imp)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	return m, err
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if p, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Import resolves the module's own packages by type-checking them into the
// shared Info, and everything else through the source importer.
func (m *module) Import(path string) (*types.Package, error) {
	if path == m.path || strings.HasPrefix(path, m.path+"/") {
		return m.load(path)
	}
	return m.std.Import(path)
}

// load type-checks one module package's non-test files once.
func (m *module) load(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		m.pkgOf[m.fset.File(f.Pos())] = path
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.pkgs[path] = pkg
	m.files[path] = files
	m.order = append(m.order, path)
	return pkg, nil
}

// unimported returns the packages under prefix (a path relative to the
// module) that no other package of the module imports, sorted.
func (m *module) unimported(prefix string) []string {
	imported := map[string]bool{}
	for _, path := range m.order {
		for _, imp := range m.pkgs[path].Imports() {
			imported[imp.Path()] = true
		}
	}
	var out []string
	for _, path := range m.order {
		if strings.HasPrefix(path, m.path+"/"+prefix) && !imported[path] {
			out = append(out, strings.TrimPrefix(path, m.path+"/"))
		}
	}
	sort.Strings(out)
	return out
}

// unreferenced returns the keys of the functions and methods declared in the
// packages under prefix (a path relative to the module) that no code
// references outside their own declarations, sorted.
func (m *module) unreferenced(prefix string) []string {
	// own maps each candidate to its declaration's span.
	own := map[*types.Func]*ast.FuncDecl{}
	for _, path := range m.order {
		if !strings.HasPrefix(path, m.path+"/"+prefix) {
			continue
		}
		for _, f := range m.files[path] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					own[m.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}
	referenced := map[*types.Func]bool{}
	m.references(func(obj types.Object, at token.Pos) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		fn = fn.Origin()
		if fd, ok := own[fn]; ok && fd.Pos() <= at && at < fd.End() {
			return
		}
		referenced[fn] = true
	})
	var out []string
	for fn := range own {
		if !referenced[fn] {
			out = append(out, strings.ReplaceAll(fn.FullName(), m.path+"/", ""))
		}
	}
	sort.Strings(out)
	return out
}

// unusedExports returns the keys of the exported functions and methods of
// the packages under prefix (a path relative to the module) that no non-test
// code of another package references and no runnable Example of their own
// package documents, sorted.
func (m *module) unusedExports(prefix string) ([]string, error) {
	used := map[types.Object]bool{}
	var own []*types.Func
	for _, path := range m.order {
		if !strings.HasPrefix(path, m.path+"/"+prefix) {
			continue
		}
		pkg := m.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			if !token.IsExported(name) {
				continue
			}
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				own = append(own, obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						if fn := named.Method(i); fn.Exported() {
							own = append(own, fn)
						}
					}
				}
			}
		}
		documented, err := m.examples(path)
		if err != nil {
			return nil, err
		}
		for _, obj := range documented {
			used[obj] = true
		}
	}
	m.references(func(obj types.Object, at token.Pos) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj.Pkg() != nil && m.pkgOf[m.fset.File(at)] != obj.Pkg().Path() {
			used[obj] = true
		}
	})
	var out []string
	for _, fn := range own {
		if !used[fn] {
			out = append(out, strings.ReplaceAll(fn.FullName(), m.path+"/", ""))
		}
	}
	sort.Strings(out)
	return out, nil
}

// examples returns the identifiers of the package at path that its runnable
// Examples (those with an output comment) document by name: ExampleF
// documents F, and ExampleT_M documents T's method M.
func (m *module) examples(path string) ([]types.Object, error) {
	pkg := m.pkgs[path]
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(path, m.path+"/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var out []types.Object
	for _, ex := range doc.Examples(files...) {
		if ex.Output == "" && !ex.EmptyOutput {
			continue
		}
		parts := strings.Split(ex.Name, "_")
		obj := pkg.Scope().Lookup(parts[0])
		if obj == nil {
			continue
		}
		if len(parts) > 1 && token.IsExported(parts[1]) {
			obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, parts[1])
			if obj == nil {
				continue
			}
		}
		out = append(out, obj)
	}
	return out, nil
}

// references reports, through ref, every object the module's non-test code
// references and where: each identifier's use, and each method that a
// conversion to an interface makes callable (at the conversion, or at
// token.NoPos when only a type assertion reaches it).
func (m *module) references(ref func(obj types.Object, at token.Pos)) {
	for id, obj := range m.info.Uses {
		ref(obj, id.Pos())
	}
	d := &dynamic{boxed: map[string]types.Type{}}
	for _, path := range m.order {
		for _, f := range m.files[path] {
			m.conversions(f, d, ref)
		}
	}
	d.assertions(ref)
}

// dynamicMethods are the methods fmt calls on a value passed as an empty
// interface.
var dynamicMethods = []string{"String", "Error"}

// conversions reports, through ref, every method a value conversion to an
// interface type in f makes callable: in call arguments, assignments,
// variable declarations, returns, composite literal elements, channel sends,
// explicit conversions, and type arguments checked against a constraint. It
// records the boxed types and asserted interfaces in d.
func (m *module) conversions(f *ast.File, d *dynamic, ref func(types.Object, token.Pos)) {
	methods := func(src types.Type, dst types.Type, at token.Pos) {
		iface, ok := dst.Underlying().(*types.Interface)
		if !ok || src == nil || types.IsInterface(src) {
			return
		}
		if _, isTuple := src.(*types.Tuple); isTuple {
			return
		}
		d.boxed[types.TypeString(src, nil)] = src
		ms := types.NewMethodSet(src)
		if iface.Empty() {
			for _, name := range dynamicMethods {
				if sel := ms.Lookup(nil, name); sel != nil {
					ref(sel.Obj(), at)
				}
			}
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			if sel := ms.Lookup(im.Pkg(), im.Name()); sel != nil {
				ref(sel.Obj(), at)
			}
		}
	}
	flow := func(e ast.Expr, dst types.Type) {
		if dst != nil {
			methods(m.info.TypeOf(e), dst, e.Pos())
		}
	}
	var stack []ast.Node
	var sigs []*types.Signature
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			sigs = append(sigs, m.info.Defs[n.Name].Type().(*types.Signature))
		case *ast.FuncLit:
			sigs = append(sigs, m.info.TypeOf(n).(*types.Signature))
		case *ast.ReturnStmt:
			res := sigs[len(sigs)-1].Results()
			if len(n.Results) == res.Len() {
				for i, r := range n.Results {
					flow(r, res.At(i).Type())
				}
			}
		case *ast.CallExpr:
			tv := m.info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					flow(n.Args[0], tv.Type)
				}
				return true
			}
			sig, ok := tv.Type.(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			for i, arg := range n.Args {
				switch {
				case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
					flow(arg, params.At(params.Len()-1).Type().(*types.Slice).Elem())
				case i < params.Len():
					flow(arg, params.At(i).Type())
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					flow(n.Rhs[i], m.info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) == len(n.Names) {
				for _, v := range n.Values {
					flow(v, m.info.TypeOf(n.Type))
				}
			}
		case *ast.SendStmt:
			if ch, ok := m.info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				flow(n.Value, ch.Elem())
			}
		case *ast.CompositeLit:
			m.literal(n, flow)
		case *ast.TypeAssertExpr:
			if n.Type == nil {
				return true // the x.(type) of a switch; its cases follow
			}
			if iface, ok := m.info.TypeOf(n.Type).Underlying().(*types.Interface); ok {
				d.asserted = append(d.asserted, iface)
			}
		case *ast.CaseClause:
			if len(stack) >= 3 {
				if _, inSwitch := stack[len(stack)-3].(*ast.TypeSwitchStmt); inSwitch {
					for _, e := range n.List {
						if iface, ok := m.info.TypeOf(e).Underlying().(*types.Interface); ok {
							d.asserted = append(d.asserted, iface)
						}
					}
				}
			}
		case *ast.Ident:
			inst, ok := m.info.Instances[n]
			if !ok {
				return true
			}
			var tparams *types.TypeParamList
			switch g := m.info.Uses[n].Type().(type) {
			case *types.Signature:
				tparams = g.TypeParams()
			case *types.Named:
				tparams = g.TypeParams()
			}
			for i := 0; tparams != nil && i < tparams.Len() && i < inst.TypeArgs.Len(); i++ {
				methods(inst.TypeArgs.At(i), tparams.At(i).Constraint(), n.Pos())
			}
		}
		return true
	})
}

// dynamic is what the conversions of every file add up to: boxed holds the
// concrete types converted to some interface (by type string, since pointer
// types are not canonical), asserted the interfaces type assertions and type
// switches ask for.
type dynamic struct {
	boxed    map[string]types.Type
	asserted []*types.Interface
}

// assertions reports, through ref, the methods a type assertion can reach: a
// boxed type that satisfies an asserted interface has that interface's
// methods callable.
func (d *dynamic) assertions(ref func(types.Object, token.Pos)) {
	for _, src := range d.boxed {
		ms := types.NewMethodSet(src)
		for _, iface := range d.asserted {
			if !types.Implements(src, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if sel := ms.Lookup(iface.Method(i).Pkg(), iface.Method(i).Name()); sel != nil {
					ref(sel.Obj(), token.NoPos)
				}
			}
		}
	}
}

// literal reports the element flows of one composite literal.
func (m *module) literal(lit *ast.CompositeLit, flow func(ast.Expr, types.Type)) {
	t := m.info.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, elt := range lit.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if !keyed {
				if i < u.NumFields() {
					flow(elt, u.Field(i).Type())
				}
				continue
			}
			for j := 0; j < u.NumFields(); j++ {
				if key, ok := kv.Key.(*ast.Ident); ok && u.Field(j).Name() == key.Name {
					flow(kv.Value, u.Field(j).Type())
				}
			}
		case *types.Slice, *types.Array, *types.Map:
			elem := u.(interface{ Elem() types.Type }).Elem()
			if !keyed {
				flow(elt, elem)
				continue
			}
			if mp, ok := u.(*types.Map); ok {
				flow(kv.Key, mp.Key())
			}
			flow(kv.Value, elem)
		}
	}
}
