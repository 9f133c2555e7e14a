// Package rngstream enforces the RNG stream-name registry: every call
// to an RNG method that names a stream (Stream, Uniform, Intn, Exp,
// Perm) must pass a constant declared in the sim package — directly, or
// as the format of an fmt.Sprintf over such a constant for indexed
// families like per-host mobility streams.
//
// Stream names partition the deterministic random sequence (DESIGN.md
// §8): two call sites that improvise the same literal silently share a
// stream and perturb each other's draws, and a renamed ad-hoc literal
// changes every figure downstream. Centralizing the names in
// internal/sim/streams.go makes collisions a compile-time duplicate
// and drift a lint failure.
//
// Legal:
//
//	rng.Uniform(sim.StreamPlacement, 0, w)
//	rng.Stream(fmt.Sprintf(sim.StreamMobility, i))
//
// Flagged:
//
//	rng.Uniform("place", 0, w)            // raw literal
//	rng.Stream(fmt.Sprintf("mob.%d", i))  // literal format
//
// The RNG's own method bodies forward the caller's name parameter and
// are exempt by file (internal/sim/rng.go). Other exceptions annotate
// the call line with //simlint:stream <why>.
package rngstream

import (
	"go/ast"
	"go/types"
	"strings"

	"ecgrid/internal/lint"
)

// Analyzer is the rngstream check.
var Analyzer = &lint.Analyzer{
	Name: "rngstream",
	Doc:  "requires RNG stream names to be constants from the sim package registry (internal/sim/streams.go)",
	Run:  run,
}

// streamMethods are the RNG methods whose first argument names a stream.
var streamMethods = map[string]bool{
	"Stream":  true,
	"Uniform": true,
	"Intn":    true,
	"Exp":     true,
	"Perm":    true,
}

// exemptSuffix: the RNG implementation itself forwards its name
// parameter (Uniform calls r.Stream(name)); those interior calls cannot
// be registry constants.
const exemptSuffix = "/internal/sim/rng.go"

func run(pass *lint.Pass) error {
	for _, f := range pass.Pkg.Files {
		filename := pass.Pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, exemptSuffix) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !streamMethods[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			if !isRNGReceiver(pass.Pkg.Info, sel.X) {
				return true
			}
			if registryName(pass.Pkg.Info, call.Args[0]) {
				return true
			}
			if pass.Suppressed(call, "stream") {
				return true
			}
			pass.Reportf(call.Args[0].Pos(),
				"RNG stream name must be a sim package constant (internal/sim/streams.go) or fmt.Sprintf over one; got %s",
				types.ExprString(call.Args[0]))
			return true
		})
	}
	return nil
}

// isRNGReceiver reports whether e's type is (a pointer to) a named type
// RNG.
func isRNGReceiver(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "RNG"
}

// registryName reports whether e is a constant declared in a package
// named "sim", or fmt.Sprintf whose format argument is one.
func registryName(info *types.Info, e ast.Expr) bool {
	if isSimConst(info, e) {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" {
		return false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "fmt" {
		return false
	}
	return isSimConst(info, call.Args[0])
}

// isSimConst resolves e to a declared constant whose package is named
// "sim". (Fixture mini-packages named sim satisfy this the same way the
// real registry does.)
func isSimConst(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	obj, ok := info.Uses[id].(*types.Const)
	if !ok {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}
