package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// errUncheckedScope reports whether a package directory is swept for
// dropped error returns: every cmd/ binary, plus the serving,
// fault-injection (process- and network-level), wire-protocol and
// cluster-routing layers — a dropped error there silently weakens the
// failure accounting the resilience machinery depends on (a swallowed
// wire or backend error would turn a terminal outcome into a hang).
func errUncheckedScope(rel string) bool {
	if rel == "cmd" || strings.HasPrefix(rel, "cmd/") {
		return true
	}
	switch rel {
	case "internal/serve", "internal/faultinject", "internal/wire",
		"internal/cluster", "internal/netfault":
		return true
	}
	return false
}

// checkErrUnchecked flags dropped error returns in the packages named
// by errUncheckedScope: expression, defer and go statements whose call
// returns an error that nobody reads. Calls into packages fmt and
// strings are excluded (see uncheckedCall).
func (c *checker) checkErrUnchecked() {
	for _, pkg := range c.mod.Pkgs {
		if !errUncheckedScope(pkg.RelDir) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.ExprStmt:
						if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
							c.uncheckedCall(pkg, call, "")
						}
					case *ast.DeferStmt:
						c.uncheckedCall(pkg, n.Call, "deferred ")
					case *ast.GoStmt:
						c.uncheckedCall(pkg, n.Call, "spawned ")
					}
					return true
				})
			}
		}
	}
}

// uncheckedCall reports a call whose error result is dropped.
func (c *checker) uncheckedCall(pkg *Package, call *ast.CallExpr, kind string) {
	sig, ok := pkg.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return
	}
	if path, _ := c.calleePkgPath(pkg, call); path == "fmt" || path == "strings" {
		// fmt: the Fprint family's errors go unchecked when writing to
		// stdout/stderr. strings: (*Builder).Write* are documented to
		// always return a nil error.
		return
	}
	c.report(call.Pos(), RuleErrUnchecked, "%scall drops its error result", kind)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
