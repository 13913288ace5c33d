package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// viewawarePass enforces the engine's one read path: in package core,
// adjacency accessors are called only on *pag.View — the per-epoch view
// each engine resolves in its mutators — never on *pag.Graph,
// *pag.Condensation or any other layer. A raw call silently reads the
// wrong layer (base adjacency while the engine runs condensed, or the
// frozen arrays while an overlay epoch is live) and produces stale
// points-to sets rather than an error.
type viewawarePass struct{}

func (viewawarePass) Name() string { return "viewaware" }
func (viewawarePass) Doc() string {
	return "core must read adjacency only through pag.View"
}

func (viewawarePass) AppliesTo(pkgName, pkgPath string) bool { return pkgName == "core" }

// adjacencyAccessors is the adjacency read surface.
var adjacencyAccessors = map[string]bool{
	"LocalOut":      true,
	"GlobalOut":     true,
	"LocalIn":       true,
	"GlobalIn":      true,
	"HasGlobalIn":   true,
	"HasGlobalOut":  true,
	"HasLocalEdges": true,
}

func (viewawarePass) Run(u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !adjacencyAccessors[sel.Sel.Name] {
				return true
			}
			recv := u.Info.TypeOf(sel.X)
			if recv == nil || isNamed(recv, pagPath, "View") {
				return true
			}
			out = append(out, Diagnostic{
				Pos:  u.Fset.Position(call.Pos()),
				Pass: "viewaware",
				Message: fmt.Sprintf("%s.%s call — core reads adjacency only through pag.View, so the engine's mode and epoch stay in one place",
					types.TypeString(recv, types.RelativeTo(nil)), sel.Sel.Name),
			})
			return true
		})
	}
	return out
}
