// Command vegacheck reports calls whose error result nobody reads: an
// expression, defer or go statement calling a function whose last
// result is an error. go vet does not check this. Calls into fmt and
// strings are exempt: the Fprint family's errors go unread when writing
// diagnostics, and strings.Builder's writes always return nil. A
// deliberate drop is written `_ = f()` or `_, _ = f()` with its reason.
//
// Run it from the module root:
//
//	go run ./cmd/vegacheck
//
// It sweeps every non-test package of the module except benchmark/,
// whose sources change only when the benchmark is re-baselined. It
// exits 1 when it reports a call, 2 when the module does not load.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/vegacheck (from the module root)")
		os.Exit(2)
	}
	found, err := check(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "vegacheck: %v\n", err)
		os.Exit(2)
	}
	for _, f := range found {
		fmt.Println(f)
	}
	if len(found) > 0 {
		os.Exit(1)
	}
}

// finding is one dropped error result.
type finding struct {
	pos  token.Position
	kind string // "", "deferred " or "spawned "
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %scall drops its error result", f.pos, f.kind)
}

// module type-checks the packages of one module, each once, on first
// import; the standard library comes from GOROOT sources.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*types.Package
	found      []finding
}

// check sweeps the module rooted at root and returns its findings in
// position order.
func check(root string) ([]finding, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, fset: token.NewFileSet(), pkgs: map[string]*types.Package{}}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			m.path = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s: no module directive", filepath.Join(root, "go.mod"))
	}
	// The source importer would run cgo on packages like net; their
	// pure-Go variants type-check the same.
	build.Default.CgoEnabled = false
	m.std = importer.ForCompiler(m.fset, "source", nil)

	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		name := d.Name()
		if rel != "." && (rel == "benchmark" || name == "testdata" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = m.Import(path)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	sort.Slice(m.found, func(i, j int) bool {
		a, b := m.found[i].pos, m.found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return m.found, err
}

// Import resolves module packages by type-checking them from source
// (sweeping each as it goes) and everything else through the standard
// library importer.
func (m *module) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	rel, ok := strings.CutPrefix(path, m.path)
	if !ok || (rel != "" && rel[0] != '/') {
		return m.std.Import(path)
	}
	dir := filepath.Join(m.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					m.dropped(info, call, "")
				}
			case *ast.DeferStmt:
				m.dropped(info, n.Call, "deferred ")
			case *ast.GoStmt:
				m.dropped(info, n.Call, "spawned ")
			}
			return true
		})
	}
	return p, nil
}

// dropped records call if its last result is an error and its callee
// is not exempt.
func (m *module) dropped(info *types.Info, call *ast.CallExpr, kind string) {
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	if res.Len() == 0 || !types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if id != nil {
		if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil {
			if p := obj.Pkg().Path(); p == "fmt" || p == "strings" {
				return
			}
		}
	}
	m.found = append(m.found, finding{pos: m.fset.Position(call.Pos()), kind: kind})
}
