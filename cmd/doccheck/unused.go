package main

// The -unused mode reports every package-level declaration of the first
// module that no main package reaches, from source type-checked against
// `go list -export` data. Roots are main and init of every main package,
// every init, and every package-level var initializer. A declaration
// reaches each package-level object its syntax names, matched across
// packages by "pkgpath.[Recv.]Name". A method of a reached type is also
// reached when an interface method anywhere in the import graph has its
// name and arity, and is spared when a _test.go file selects its name:
// such methods are test observation hooks.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// unusedAllow spares declarations that no main package reaches, each with
// its reason. An entry naming a type spares its methods too. An entry
// that names a reachable or missing declaration is itself a finding, so
// the list can only shrink.
var unusedAllow = map[string]string{
	"repro/internal/netsim.Sink":           "the downstream-node fixture of the discovery, netsim and baseline tests",
	"repro/internal/metrics.CatalogCovers": "the oracle the catalogue tests check OBSERVABILITY.md against",
}

// listedPkg is the part of `go list -json` output the pass reads.
type listedPkg struct {
	Dir, ImportPath, Name, Export      string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Module                             *struct{ Main bool }
}

// unusedDecl is one package-level declaration of a checked package; the
// graph's roots are the uses of the pseudo-declaration keyed "".
type unusedDecl struct {
	pos    token.Pos
	name   string          // pkgname.[Recv.]Name, as reported
	recv   string          // key of the receiver type, for methods
	arity  string          // a method's name and arity, matched against interfaces
	uses   map[string]bool // keys of the package-level objects it names
	report bool            // declared in the reported module
}

// unusedGraph is the reachability graph over every module's packages.
type unusedGraph struct {
	fset       *token.FileSet
	decls      map[string]*unusedDecl
	methods    map[string][]string // type key → its method keys
	ifaceNames map[string]bool     // arity keys of every interface method seen
	testSels   map[string]bool     // names any _test.go file selects
}

// findUnused returns one "file:line: pkg.Name is reached from no main
// package" line per finding over the modules in dirs, plus one line per
// allow-list entry that spares nothing.
func findUnused(dirs []string, allow map[string]string) ([]string, error) {
	g := &unusedGraph{fset: token.NewFileSet(), decls: map[string]*unusedDecl{"": {uses: map[string]bool{}}},
		methods: map[string][]string{}, ifaceNames: map[string]bool{}, testSels: map[string]bool{}}
	for i, dir := range dirs {
		if err := g.load(dir, i == 0); err != nil {
			return nil, err
		}
	}
	reach := map[string]bool{}
	for work := []string{""}; len(work) > 0; {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if reach[k] {
			continue
		}
		reach[k] = true
		if d := g.decls[k]; d != nil {
			for u := range d.uses {
				work = append(work, u)
			}
		}
		for _, m := range g.methods[k] {
			if g.ifaceNames[g.decls[m].arity] {
				work = append(work, m)
			}
		}
	}
	var found []*unusedDecl
	spared := map[string]bool{}
	for k, d := range g.decls {
		if !d.report || reach[k] || d.recv != "" && reach[d.recv] && g.testSels[k[strings.LastIndexByte(k, '.')+1:]] {
			continue
		}
		if _, ok := allow[k]; ok {
			spared[k] = true
		} else if _, ok := allow[d.recv]; !ok {
			found = append(found, d)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	var out []string
	for _, d := range found {
		pos := g.fset.Position(d.pos)
		out = append(out, fmt.Sprintf("%s:%d: %s is reached from no main package", pos.Filename, pos.Line, d.name))
	}
	for k := range allow {
		if !spared[k] {
			out = append(out, fmt.Sprintf("doccheck: allow-list entry %s names no unreached declaration", k))
		}
	}
	sort.Strings(out[len(found):])
	return out, nil
}

// load lists the module in dir, type-checks its own packages against the
// export data of their dependencies and adds their declarations to g.
func (g *unusedGraph) load(dir string, report bool) error {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	exports := map[string]string{}
	for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		exports[p.ImportPath] = p.Export
	}
	imp := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	wd, _ := os.Getwd()
	for _, p := range pkgs {
		p.Dir, _ = filepath.Rel(wd, p.Dir) // findings print relative file names
		files, err := g.parse(p.Dir, p.GoFiles, func(n ast.Node) {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						g.ifaceNames[arity(id.Name, m.Type.(*ast.FuncType))] = true
					}
				}
			}
		})
		if err != nil {
			return err
		} else if p.Module == nil || !p.Module.Main {
			continue
		}
		_, err = g.parse(p.Dir, append(p.TestGoFiles, p.XTestGoFiles...), func(n ast.Node) {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				g.testSels[sel.Sel.Name] = true
			}
		})
		if err != nil {
			return err
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check(p.ImportPath, g.fset, files, info); err != nil {
			return fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		g.addFiles(p, files, info, report)
	}
	return nil
}

// parse parses the named files of one package directory and calls visit
// on every node.
func (g *unusedGraph) parse(dir string, names []string, visit func(ast.Node)) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool { visit(n); return true })
		files = append(files, f)
	}
	return files, nil
}

// addFiles records every package-level declaration in one checked
// package, with its edges, and the package's roots.
func (g *unusedGraph) addFiles(p listedPkg, files []*ast.File, info *types.Info, report bool) {
	usesOf := func(into map[string]bool, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			if k := objKey(info.Uses[id]); k != "" {
				into[k] = true
			}
			return true
		})
	}
	add := func(id *ast.Ident, n ast.Node) (string, *unusedDecl) {
		obj := info.Defs[id]
		k := objKey(obj)
		if k == "" {
			return "", nil
		}
		d := &unusedDecl{pos: id.Pos(), name: p.Name + strings.TrimPrefix(k, p.ImportPath), uses: map[string]bool{}, report: report}
		d.uses[typeKey(obj.Type())] = true // e.g. the implicit type of an iota constant
		usesOf(d.uses, n)
		g.decls[k] = d
		return k, d
	}
	roots := g.decls[""].uses
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && (decl.Name.Name == "init" || decl.Name.Name == "main" && p.Name == "main") {
					usesOf(roots, decl)
				} else if k, d := add(decl.Name, decl); d != nil && decl.Recv != nil {
					d.recv = typeKey(info.Defs[decl.Name].Type().(*types.Signature).Recv().Type())
					d.arity = arity(decl.Name.Name, decl.Type)
					g.methods[d.recv] = append(g.methods[d.recv], k)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
						for _, v := range s.Values {
							usesOf(roots, v)
						}
					}
				}
			}
		}
	}
}

// objKey names a package-level object or method as "pkgpath.[Recv.]Name";
// it returns "" for anything else.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		if t := typeKey(f.Origin().Type().(*types.Signature).Recv().Type()); t != "" {
			return t + "." + f.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() { // imports, fields and locals
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeKey is the key of the named type t (or *t) denotes, or "".
func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return objKey(n.Origin().Obj())
	}
	return ""
}

// arity keys a method by its name and its parameter and result counts, so
// a method matches an interface method only when the call could dispatch
// to it: SplitProxy.In() is no reflect.Type.In(int).
func arity(name string, ft *ast.FuncType) string {
	return fmt.Sprintf("%s/%d/%d", name, ft.Params.NumFields(), ft.Results.NumFields())
}
