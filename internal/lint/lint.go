// Package lint implements dynsumlint, the repository's invariant
// firewall: a small analyzer driver with passes that encode contracts
// the type system cannot express — frozen graphs are immutable, core
// reads adjacency through its view indirection, scratch arenas do not
// escape, and engine metrics are only touched through the sanctioned
// atomic/batched paths.
//
// The driver is deliberately stdlib-only (go/ast + go/types with the
// source importer); it trades incremental caching for zero dependencies,
// which is the repository's baseline constraint.
//
// Intentional exceptions are whitelisted in the source with a directive:
//
//	//lint:allow <pass> <reason>
//
// placed on the flagged line, on the line directly above it, or in the
// doc comment of the enclosing function (suppressing the pass for the
// whole function). The reason is mandatory: an allow without a recorded
// justification is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Unit is one type-checked package ready for analysis.
type Unit struct {
	Name  string // package name (e.g. "core")
	Path  string // import path (e.g. "dynsum/internal/core")
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Pass is one analyzer. Run appends raw diagnostics; the driver filters
// them through the //lint:allow index afterwards.
type Pass interface {
	Name() string
	Doc() string
	// AppliesTo reports whether the pass analyses a package with the
	// given name and import path. Name-based scoping (rather than path)
	// lets the testdata corpora — which live under synthetic paths —
	// exercise the same rules as the real tree.
	AppliesTo(pkgName, pkgPath string) bool
	Run(u *Unit) []Diagnostic
}

// Passes returns the full registry in reporting order.
func Passes() []Pass {
	return []Pass{
		frozenmutPass{},
		viewawarePass{},
		scratchpinPass{},
		scratchreturnPass{},
		metricsdirectPass{},
		persistsyncPass{},
		ctxflowPass{},
	}
}

// passNames returns the set of registered pass names, for directive
// validation.
func passNames() map[string]bool {
	m := map[string]bool{}
	for _, p := range Passes() {
		m[p.Name()] = true
	}
	return m
}

// Run analyses one unit with every applicable pass and returns the
// diagnostics that survive the unit's //lint:allow directives, sorted by
// position. Malformed directives are reported under the pseudo-pass
// "lint".
func Run(u *Unit) []Diagnostic {
	idx, bad := buildAllowIndex(u)
	out := append([]Diagnostic(nil), bad...)
	for _, p := range Passes() {
		if !p.AppliesTo(u.Name, u.Path) {
			continue
		}
		for _, d := range p.Run(u) {
			if idx.allowed(p.Name(), d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// allowIndex records where each pass is suppressed: individual lines
// (the directive's own line and the line after it) and whole function
// body ranges (directive in the FuncDecl doc comment).
type allowIndex struct {
	lines  map[string]map[int]map[string]bool // file -> line -> pass set
	ranges []allowRange
}

type allowRange struct {
	file       string
	start, end int // line range, inclusive
	pass       string
}

func (ix *allowIndex) allowed(pass string, pos token.Position) bool {
	if ps := ix.lines[pos.Filename]; ps != nil {
		if ps[pos.Line][pass] {
			return true
		}
	}
	for _, r := range ix.ranges {
		if r.pass == pass && r.file == pos.Filename && pos.Line >= r.start && pos.Line <= r.end {
			return true
		}
	}
	return false
}

const allowPrefix = "//lint:allow"

// buildAllowIndex scans every comment in the unit for allow directives
// and returns the suppression index plus diagnostics for malformed
// directives (missing pass, missing reason, unknown pass name).
func buildAllowIndex(u *Unit) (*allowIndex, []Diagnostic) {
	ix := &allowIndex{lines: map[string]map[int]map[string]bool{}}
	var bad []Diagnostic
	known := passNames()

	addLine := func(file string, line int, pass string) {
		if ix.lines[file] == nil {
			ix.lines[file] = map[int]map[string]bool{}
		}
		if ix.lines[file][line] == nil {
			ix.lines[file][line] = map[string]bool{}
		}
		ix.lines[file][line][pass] = true
	}

	for _, f := range u.Files {
		// Function-level directives: collect the doc-comment groups so
		// the per-line scan below can treat them specially.
		funcDoc := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDoc[fd.Doc] = fd
			}
		}

		for _, cg := range f.Comments {
			fd := funcDoc[cg]
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, allowPrefix))
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{pos, "lint", "malformed //lint:allow: missing pass name"})
					continue
				}
				pass := fields[0]
				if !known[pass] {
					bad = append(bad, Diagnostic{pos, "lint", fmt.Sprintf("//lint:allow names unknown pass %q", pass)})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{pos, "lint",
						fmt.Sprintf("//lint:allow %s: a reason is required", pass)})
					continue
				}
				if fd != nil {
					start := u.Fset.Position(fd.Pos())
					end := u.Fset.Position(fd.End())
					ix.ranges = append(ix.ranges, allowRange{pos.Filename, start.Line, end.Line, pass})
				} else {
					// Suppress the directive's own line (trailing form)
					// and the next line (standalone form above the code).
					addLine(pos.Filename, pos.Line, pass)
					addLine(pos.Filename, pos.Line+1, pass)
				}
			}
		}
	}
	return ix, bad
}

// --- shared type helpers -------------------------------------------------

// pagPath and corePath are the import paths the passes key their type
// tests on. srcimporter resolves the real packages to these paths both
// when the tree itself is analysed and when testdata imports them.
const (
	pagPath  = "dynsum/internal/pag"
	corePath = "dynsum/internal/core"
)

// isNamed reports whether t (after pointer stripping) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isNamedInPkgNamed is isNamed keyed on the declaring package's NAME
// rather than its import path: passes whose anchor type is unexported
// (so the testdata corpus must declare its own copy under a synthetic
// path) match any package named pkgName.
func isNamedInPkgNamed(t types.Type, pkgName, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// hasSlice reports whether t contains a slice at the top level: a slice
// itself, or a tuple with a slice member (multi-result calls).
func hasSlice(t types.Type) bool {
	switch t := t.(type) {
	case *types.Slice:
		return true
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if _, ok := t.At(i).Type().Underlying().(*types.Slice); ok {
				return true
			}
		}
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// exprString renders a stable key for an expression: identifiers by
// their resolved object (so shadowing does not alias), selector chains
// by their printed path.
func exprString(u *Unit, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := u.Info.ObjectOf(e); obj != nil {
			return fmt.Sprintf("%s@%d", e.Name, obj.Pos())
		}
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(u, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(u, e.X)
	}
	return ""
}

// funcRecv returns the named type of fn's receiver (pointer-stripped),
// or nil.
func funcRecv(u *Unit, fn *ast.FuncDecl) *types.Named {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	t := u.Info.TypeOf(fn.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
