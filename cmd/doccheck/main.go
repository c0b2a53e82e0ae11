// Command doccheck enforces the repository's documentation contract: every
// exported symbol in the listed packages must carry a doc comment. CI runs
// it over the protocol engines and the observability packages (see
// .github/workflows/ci.yml); run it locally with:
//
//	go run ./cmd/doccheck ./internal/dmtp ./internal/metrics
//
// With no arguments it checks the default package set, and also that every
// repository path DESIGN.md and README.md cite exists (paths.go). Exit
// status 1 and one "file:line: symbol" diagnostic per missing comment or
// missing path; exported fields and interface methods inside documented
// types are exempt (their type's comment is the contract), as are test
// files.
//
// A second mode audits documentation snippets against the daemons'
// actual flag sets:
//
//	go run ./cmd/doccheck -snippets README.md EXPERIMENTS.md
//
// It extracts every cmd/* invocation from the docs' fenced code blocks
// and fails if a snippet passes a flag the command does not define —
// the drift that creeps in when a PR adds flags but only updates some
// walkthroughs. With no files after -snippets it checks the default doc
// set (README.md, EXPERIMENTS.md, OBSERVABILITY.md, PROTOCOL.md).
//
// A third mode, go run ./cmd/doccheck -unused, fails on every declaration
// under the repository that no main package reaches (see unused.go for
// the rule, and unusedAllow for the few that stay and why).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// defaultPackages is the doc-contract surface CI enforces.
var defaultPackages = []string{
	"./internal/dmtp",
	"./internal/metrics",
	"./internal/conformance",
	"./internal/faults",
	"./internal/debugsrv",
	"./internal/tracespan",
	"./internal/campaign",
	"./internal/journal",
	"./internal/monitor",
	"./internal/monitor/oracles",
	"./internal/live",
	"./internal/p4sim",
	"./internal/wire",
	"./internal/core",
	"./internal/discovery",
}

func main() {
	pkgs := os.Args[1:]
	if len(pkgs) > 0 && pkgs[0] == "-snippets" {
		docs := pkgs[1:]
		if len(docs) == 0 {
			docs = defaultDocs
		}
		bad, err := checkSnippets(".", docs)
		exit(bad, err, "doc snippets use flags the commands do not define")
	}
	if len(pkgs) > 0 && pkgs[0] == "-unused" {
		// bench/ changes only with the benchmark: it adds roots and test
		// selectors, and its own declarations are never reported.
		findings, err := findUnused([]string{".", "bench"}, unusedAllow)
		for _, f := range findings {
			fmt.Println(f)
		}
		exit(len(findings), err, "declarations are reached from no main package")
	}
	bad := 0
	what := "exported symbols lack doc comments"
	if len(pkgs) == 0 {
		pkgs = defaultPackages
		missing, err := checkPaths(".", pathDocs)
		if err != nil {
			exit(0, err, "")
		}
		for _, f := range missing {
			fmt.Println(f)
		}
		bad = len(missing)
		what = "undocumented exported symbols or cited paths that do not exist"
	}
	for _, pkg := range pkgs {
		n, err := checkDir(strings.TrimPrefix(pkg, "./"))
		if err != nil {
			exit(0, fmt.Errorf("%s: %v", pkg, err), "")
		}
		bad += n
	}
	exit(bad, nil, what)
}

// exit ends the run: status 2 on err, 1 with a count of what is wrong when
// bad > 0, and 0 otherwise.
func exit(bad int, err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d %s\n", bad, what)
		os.Exit(1)
	}
	os.Exit(0)
}

// checkDir parses every non-test .go file in dir and reports undocumented
// exported declarations.
func checkDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	bad := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return bad, err
		}
		bad += checkFile(fset, f)
	}
	return bad, nil
}

// checkFile reports each undocumented exported top-level declaration in f.
func checkFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, what, name string) {
		fmt.Printf("%s: undocumented exported %s %s\n", fset.Position(pos), what, name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			// A comment on the grouped decl ("// The recorded protocol
			// events.") documents every spec in the group, matching godoc.
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && !groupDoc {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil || groupDoc {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), "const/var", n.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// exportedRecv reports whether fn is package-level or has an exported
// receiver type — methods on unexported types are not API surface.
func exportedRecv(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}
