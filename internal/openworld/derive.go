package openworld

import (
	"fmt"
	"strings"

	"dynsum/internal/pag"
)

// Spec derivation: given the full-body oracle graph and its stripped
// counterpart, read a deleted method's true local edges back into spec
// lines. A method whose flows all connect boundary nodes (formals, return)
// lowers to exact rules — re-applying them via Resolve reproduces the
// oracle edges shape-for-shape (with the blob object standing in for
// deleted allocation sites), so the analysis answers match the oracle's. Any
// flow that touches an interior local (a call-site temporary, a loop
// variable) cannot be named by the spec grammar; such methods fall back to
// a single "blended" line and stay on the conservative blob model.
//
// This is the harness's stand-in for a human spec author (or for the
// dynamic spec-mining of the "Active Learning of Points-To Specifications"
// line of work): it produces the best spec the grammar admits, and the
// open-world experiments measure how much precision each fallback costs.

// DeriveSpec derives m's spec from its oracle body. stripped must carry m's
// bodyless mark (StripBodies' output); oracle supplies the deleted local
// edges. Only local edges matter — the deleted method's global edges
// (assignglobal, call linkage) survive stripping and need no spec.
func DeriveSpec(oracle, stripped *pag.Graph, m pag.MethodID) (MethodSpec, error) {
	info, ok := stripped.Bodyless(m)
	if !ok {
		return MethodSpec{}, fmt.Errorf("openworld: DeriveSpec: method %s is not bodyless in the stripped graph",
			stripped.MethodInfo(m).Name)
	}
	ms := MethodSpec{Name: oracle.MethodInfo(m).Name}

	term := make(map[pag.NodeID]Term, len(info.Formals)+1)
	for i, f := range info.Formals {
		if f != pag.NoNode {
			term[f] = Term{Kind: TermArg, Arg: i}
		}
	}
	if info.Ret != pag.NoNode {
		term[info.Ret] = Term{Kind: TermRet}
	}

	seen := make(map[Rule]struct{})
	emit := func(dst, src Term) {
		r := Rule{Dst: dst, Src: src}
		if _, dup := seen[r]; dup {
			return
		}
		seen[r] = struct{}{}
		ms.Rules = append(ms.Rules, r)
	}

	for n := 0; n < oracle.NumNodes(); n++ {
		id := pag.NodeID(n)
		if oracle.Node(id).Method != m {
			continue
		}
		for _, e := range oracle.Out(id) {
			if ms.Blended {
				break
			}
			if !e.Kind.IsLocal() {
				continue // oracle may be in builder form: read Out, keep locals
			}
			sT, sOK := term[e.Src]
			dT, dOK := term[e.Dst]
			switch e.Kind {
			case pag.Assign:
				// Only "ret <- argI" is expressible: a callee cannot rebind
				// a caller's variable, so formal-to-formal copies (dead in
				// any real program) and interior hops both defeat the
				// grammar.
				if sOK && dOK && sT.Kind == TermArg && dT.Kind == TermRet {
					emit(dT, sT)
					continue
				}
			case pag.Load:
				if sOK && dOK && dT.Kind == TermRet {
					sT.Field = oracle.FieldName(e.Field())
					emit(dT, sT)
					continue
				}
			case pag.Store:
				if sOK && dOK && sT.Kind != TermRet {
					dT.Field = oracle.FieldName(e.Field())
					emit(dT, sT)
					continue
				}
			case pag.New:
				if dOK && dT.Kind == TermRet {
					emit(dT, Term{Kind: TermNew})
					continue
				}
			}
			ms.Blended = true
		}
	}
	if ms.Blended {
		ms.Rules = nil
	}
	return ms, nil
}

// DeriveSpecs derives a spec block for every bodyless method of stripped,
// in method-ID order.
func DeriveSpecs(oracle, stripped *pag.Graph) (*File, error) {
	f := &File{}
	for _, m := range stripped.BodylessMethods() {
		ms, err := DeriveSpec(oracle, stripped, m)
		if err != nil {
			return nil, err
		}
		f.Methods = append(f.Methods, ms)
	}
	return f, nil
}

// Format renders the file back to parseable spec text (Parse(Format(f)) is
// structurally f, minus comments and line numbers).
func (f *File) Format() string {
	var b strings.Builder
	for _, ms := range f.Methods {
		fmt.Fprintf(&b, "method %s\n", ms.Name)
		if ms.Blended {
			b.WriteString("  blended\n")
			continue
		}
		for _, r := range ms.Rules {
			fmt.Fprintf(&b, "  %s <- %s\n", r.Dst, r.Src)
		}
	}
	return b.String()
}
