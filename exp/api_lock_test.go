package exp_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the exported-API golden dump")

// expPackages are the exported experimental packages locked by this test.
var expPackages = []string{"trace", "monitor"}

// TestAPISurfaceLock renders every exported declaration of the exp/...
// packages and compares the dump against testdata/api.golden. Intentional
// surface changes are recorded with -update; anything else is drift.
func TestAPISurfaceLock(t *testing.T) {
	var dump bytes.Buffer
	for _, pkg := range expPackages {
		decls, err := exportedDecls(pkg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&dump, "package %s\n\n", pkg)
		for _, d := range decls {
			fmt.Fprintln(&dump, d)
		}
		fmt.Fprintln(&dump)
	}
	golden := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.WriteFile(golden, dump.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump.Bytes(), want) {
		t.Fatalf("exported exp/... API drifted from %s (rerun with -update if intended):\n--- current ---\n%s",
			golden, dump.Bytes())
	}
}

// TestNoInternalTypesInExportedSignatures guards the carve-out invariant: no
// type from an internal/... package may appear in an exported exp/...
// declaration. Constant value expressions are exempt — re-exporting an
// untyped constant (e.g. DefaultMaxSteps) names the internal package without
// leaking a type.
func TestNoInternalTypesInExportedSignatures(t *testing.T) {
	for _, pkg := range expPackages {
		files, fset, err := parseDir(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			internalImports := map[string]string{} // local name -> import path
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.Contains(path, "/internal/") && !strings.HasSuffix(path, "/internal") {
					continue
				}
				name := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				internalImports[name] = path
			}
			if len(internalImports) == 0 {
				continue
			}
			check := func(where string, expr ast.Expr) {
				if expr == nil {
					return
				}
				ast.Inspect(expr, func(n ast.Node) bool {
					// Unexported struct fields are not part of the API; an
					// internal type there is the alias pattern working as
					// intended, not a leak.
					if field, ok := n.(*ast.Field); ok && len(field.Names) > 0 {
						exported := false
						for _, name := range field.Names {
							exported = exported || name.IsExported()
						}
						if !exported {
							return false
						}
					}
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					if path, bad := internalImports[id.Name]; bad {
						t.Errorf("%s: exported %s references internal type %s.%s (%s)",
							fset.Position(sel.Pos()), where, id.Name, sel.Sel.Name, path)
					}
					return true
				})
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil || !d.Name.IsExported() {
						continue
					}
					check("func "+d.Name.Name, d.Type)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								check("type "+s.Name.Name, s.Type)
							}
						case *ast.ValueSpec:
							exported := false
							for _, n := range s.Names {
								exported = exported || n.IsExported()
							}
							if !exported {
								continue
							}
							where := d.Tok.String() + " " + s.Names[0].Name
							check(where, s.Type)
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									check(where, v)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestNoInternalReExportsOfTrace guards the single home of the history
// types: no non-test file under internal/, cmd/ or examples/ may declare a
// type alias of an exp/trace name, or a package-level var or const whose
// value is a bare exp/trace name, and none may import internal/spec. The
// exceptions are internal/monitor's verdict and result names, which
// bench/probe.go uses, and internal/spec itself, which bench/probe.go
// imports.
func TestNoInternalReExportsOfTrace(t *testing.T) {
	const mod = "github.com/drv-go/drv/"
	allowed := map[string]bool{
		"internal/monitor.Verdict": true,
		"internal/monitor.Yes":     true,
		"internal/monitor.No":      true,
		"internal/monitor.Maybe":   true,
		"internal/monitor.Result":  true,
	}
	var dirs []string
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join("..", root), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range dirs {
		pkg := filepath.ToSlash(strings.TrimPrefix(dir, ".."+string(filepath.Separator)))
		if pkg == "internal/spec" {
			continue
		}
		files, fset, err := parseDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			traceName := ""
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				switch path {
				case mod + "internal/spec":
					t.Errorf("%s imports %s; import exp/trace instead", fset.Position(imp.Pos()), path)
				case mod + "exp/trace":
					traceName = "trace"
					if imp.Name != nil {
						traceName = imp.Name.Name
					}
				}
			}
			if traceName == "" {
				continue
			}
			isTraceName := func(e ast.Expr) bool {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				id, ok := sel.X.(*ast.Ident)
				return ok && id.Name == traceName
			}
			report := func(name *ast.Ident, what string) {
				if !allowed[pkg+"."+name.Name] {
					t.Errorf("%s: %s.%s re-exports exp/trace as %s; import exp/trace where it is used",
						fset.Position(name.Pos()), pkg, name.Name, what)
				}
			}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Assign.IsValid() && isTraceName(s.Type) {
							report(s.Name, "a type alias")
						}
					case *ast.ValueSpec:
						for i, v := range s.Values {
							if i < len(s.Names) && isTraceName(v) {
								report(s.Names[i], "a "+d.Tok.String())
							}
						}
					}
				}
			}
		}
	}
}

func parseDir(pkg string) ([]*ast.File, *token.FileSet, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(pkg)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkg, e.Name()), nil, 0)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return files, fset, nil
}

// exportedDecls renders the exported top-level declarations of an exp
// package, one normalized snippet per declaration, sorted.
func exportedDecls(pkg string) ([]string, error) {
	files, fset, err := parseDir(pkg)
	if err != nil {
		return nil, err
	}
	var out []string
	render := func(node any) (string, error) {
		var buf bytes.Buffer
		cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
		if err := cfg.Fprint(&buf, fset, node); err != nil {
			return "", err
		}
		return buf.String(), nil
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !receiverExported(d.Recv) {
					continue
				}
				stripped := *d
				stripped.Body = nil
				stripped.Doc = nil
				s, err := render(&stripped)
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var name *ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						name = s.Name
						s.Doc, s.Comment = nil, nil
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								name = n
								break
							}
						}
						s.Doc, s.Comment = nil, nil
					}
					if name == nil || !name.IsExported() {
						continue
					}
					single := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{spec}}
					s, err := render(single)
					if err != nil {
						return nil, err
					}
					out = append(out, s)
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
