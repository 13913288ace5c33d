package check_test

import (
	"strings"
	"testing"

	"dynsum/internal/check"
	"dynsum/internal/delta"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// buildCyclic hand-builds a small two-method program with an assign
// cycle (so the condensation is non-trivial), global traffic, field
// traffic and a call — one of every edge kind. Returns the frozen graph
// plus the nodes the corruption cases aim at.
type cyclicFixture struct {
	g          *pag.Graph
	m1, m2     pag.MethodID
	v0, v1, v2 pag.NodeID // the assign cycle, rep = v0
	obj        pag.NodeID // allocation feeding v0
	glob       pag.NodeID
	w0         pag.NodeID // m2 local
}

func buildCyclic(t *testing.T) *cyclicFixture {
	t.Helper()
	b := pag.NewBuilder()
	cls := b.Class("C", pag.NoClass)
	f := b.G.AddField("C.f")
	fx := &cyclicFixture{}
	fx.m1 = b.Method("C.m1", cls)
	fx.m2 = b.Method("C.m2", cls)
	fx.v0 = b.Local(fx.m1, "v0", cls)
	fx.v1 = b.Local(fx.m1, "v1", cls)
	fx.v2 = b.Local(fx.m1, "v2", cls)
	v3 := b.Local(fx.m1, "v3", cls)
	fx.w0 = b.Local(fx.m2, "w0", cls)
	w1 := b.Local(fx.m2, "w1", cls)
	fx.obj = b.NewObject(fx.v0, "o1", cls)
	b.Copy(fx.v1, fx.v0)
	b.Copy(fx.v2, fx.v1)
	b.Copy(fx.v0, fx.v2) // closes the assign cycle
	b.Load(v3, fx.v2, f)
	b.Store(fx.v1, f, v3)
	fx.glob = b.GlobalVar("C.g", cls)
	b.Copy(fx.glob, fx.v0)
	b.Copy(fx.w0, fx.glob)
	b.Call(fx.m1, fx.m2, "", []pag.NodeID{fx.v0}, []pag.NodeID{fx.w0}, w1, v3)
	g, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if g.Condensation() == nil || g.Condensation().Trivial() {
		t.Fatal("fixture did not produce a non-trivial condensation")
	}
	fx.g = g
	return fx
}

func TestGraphHealthy(t *testing.T) {
	// Builder form.
	b := pag.NewBuilder()
	cls := b.Class("C", pag.NoClass)
	m := b.Method("C.m", cls)
	v := b.Local(m, "v", cls)
	b.NewObject(v, "o", cls)
	if err := check.Graph(b.G); err != nil {
		t.Errorf("builder-form graph flagged: %v", err)
	}

	// Frozen form, across random seeds and the hand fixture.
	for seed := int64(1); seed <= 5; seed++ {
		p := fixture.RandProgramMutable(seed, fixture.RandConfig{Globals: 2, GlobalAssigns: 4})
		if err := p.G.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := check.Graph(p.G); err != nil {
			t.Errorf("seed %d builder form flagged: %v", seed, err)
		}
		p.G.Freeze()
		if err := check.Graph(p.G); err != nil {
			t.Errorf("seed %d frozen form flagged: %v", seed, err)
		}
		if err := check.Condensation(p.G, p.G.Condensation().View()); err != nil {
			t.Errorf("seed %d condensation flagged: %v", seed, err)
		}
	}
	fx := buildCyclic(t)
	if err := check.Graph(fx.g); err != nil {
		t.Errorf("cyclic fixture flagged: %v", err)
	}
	if err := check.Condensation(fx.g, fx.g.Condensation().View()); err != nil {
		t.Errorf("cyclic condensation flagged: %v", err)
	}
}

// graphWrap overrides individual GraphData accessors to corrupt one
// clause at a time.
type graphWrap struct {
	check.GraphData
	localOut  func(pag.NodeID) []pag.Edge
	out       func(pag.NodeID) []pag.Edge
	hasLOut   func(pag.NodeID) bool
	numEdges  func() int
	kindCount func(pag.EdgeKind) int
	loadsOf   func(pag.FieldID) []pag.Edge
}

func (w *graphWrap) LocalOut(n pag.NodeID) []pag.Edge {
	if w.localOut != nil {
		return w.localOut(n)
	}
	return w.GraphData.LocalOut(n)
}

func (w *graphWrap) Out(n pag.NodeID) []pag.Edge {
	if w.out != nil {
		return w.out(n)
	}
	if w.localOut != nil {
		return append(w.localOut(n), w.GraphData.GlobalOut(n)...)
	}
	return w.GraphData.Out(n)
}

func (w *graphWrap) HasLocalOut(n pag.NodeID) bool {
	if w.hasLOut != nil {
		return w.hasLOut(n)
	}
	return w.GraphData.HasLocalOut(n)
}

func (w *graphWrap) NumEdges() int {
	if w.numEdges != nil {
		return w.numEdges()
	}
	return w.GraphData.NumEdges()
}

func (w *graphWrap) EdgeKindCount(k pag.EdgeKind) int {
	if w.kindCount != nil {
		return w.kindCount(k)
	}
	return w.GraphData.EdgeKindCount(k)
}

func (w *graphWrap) LoadsOf(f pag.FieldID) []pag.Edge {
	if w.loadsOf != nil {
		return w.loadsOf(f)
	}
	return w.GraphData.LoadsOf(f)
}

func TestGraphCorruptions(t *testing.T) {
	fx := buildCyclic(t)
	g := fx.g
	cycleEdge := pag.Edge{Src: fx.v0, Dst: fx.v1, Kind: pag.Assign, Label: pag.NoLabel}

	cases := []struct {
		name string
		wrap func() check.GraphData
		want string
	}{
		{
			name: "global edge in local span",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v0 {
						return append(append([]pag.Edge(nil), g.LocalOut(n)...), g.GlobalOut(n)...)
					}
					return g.LocalOut(n)
				}}
			},
			want: "partition broken",
		},
		{
			name: "foreign edge in span",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v2 {
						return append([]pag.Edge(nil), cycleEdge)
					}
					return g.LocalOut(n)
				}}
			},
			want: "foreign edge",
		},
		{
			name: "endpoint out of range",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v0 {
						return []pag.Edge{{Src: fx.v0, Dst: 9999, Kind: pag.Assign, Label: pag.NoLabel}}
					}
					return g.LocalOut(n)
				}}
			},
			want: "out of range",
		},
		{
			name: "duplicate edge in span",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v0 {
						return append(append([]pag.Edge(nil), g.LocalOut(n)...), cycleEdge)
					}
					return g.LocalOut(n)
				}}
			},
			want: "duplicate edge",
		},
		{
			name: "flag overstates",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, hasLOut: func(n pag.NodeID) bool {
					return !g.HasLocalOut(n)
				}}
			},
			want: "HasLocalOut",
		},
		{
			name: "NumEdges drift",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, numEdges: func() int { return g.NumEdges() + 1 }}
			},
			want: "NumEdges",
		},
		{
			name: "per-kind counter drift",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, kindCount: func(k pag.EdgeKind) int {
					c := g.EdgeKindCount(k)
					if k == pag.Assign {
						return c + 1
					}
					return c
				}}
			},
			want: "EdgeKindCount",
		},
		{
			name: "field index drift",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, loadsOf: func(f pag.FieldID) []pag.Edge {
					return append(append([]pag.Edge(nil), g.LoadsOf(f)...),
						pag.Edge{Src: fx.v0, Dst: fx.v1, Kind: pag.Load, Label: int32(f)})
				}}
			},
			want: "LoadsOf",
		},
		{
			name: "Out not partition-ordered",
			wrap: func() check.GraphData {
				return &graphWrap{GraphData: g, out: func(n pag.NodeID) []pag.Edge {
					es := append([]pag.Edge(nil), g.Out(n)...)
					for i, j := 0, len(es)-1; i < j; i, j = i+1, j-1 {
						es[i], es[j] = es[j], es[i]
					}
					return es
				}}
			},
			want: "not LocalOut followed by GlobalOut",
		},
		{
			name: "new edge crossing methods",
			wrap: func() check.GraphData {
				bad := pag.Edge{Src: fx.obj, Dst: fx.w0, Kind: pag.New, Label: pag.NoLabel}
				return &graphWrap{GraphData: g, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.obj {
						return append(append([]pag.Edge(nil), g.LocalOut(n)...), bad)
					}
					return g.LocalOut(n)
				}}
			},
			want: "crosses methods",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := check.Graph(tc.wrap())
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnosis %q does not mention %q", err, tc.want)
			}
		})
	}
}

// viewWrap overrides individual View accessors.
type viewWrap struct {
	check.View
	rep      func(pag.NodeID) pag.NodeID
	localOut func(pag.NodeID) []pag.Edge
	gOut     func(pag.NodeID) []pag.Edge
	hasGIn   func(pag.NodeID) bool
}

func (w *viewWrap) Rep(n pag.NodeID) pag.NodeID {
	if w.rep != nil {
		return w.rep(n)
	}
	return w.View.Rep(n)
}

func (w *viewWrap) LocalOut(n pag.NodeID) []pag.Edge {
	if w.localOut != nil {
		return w.localOut(n)
	}
	return w.View.LocalOut(n)
}

func (w *viewWrap) GlobalOut(n pag.NodeID) []pag.Edge {
	if w.gOut != nil {
		return w.gOut(n)
	}
	return w.View.GlobalOut(n)
}

func (w *viewWrap) HasGlobalIn(n pag.NodeID) bool {
	if w.hasGIn != nil {
		return w.hasGIn(n)
	}
	return w.View.HasGlobalIn(n)
}

func TestCondensationCorruptions(t *testing.T) {
	fx := buildCyclic(t)
	g := fx.g
	c := g.Condensation().View()
	rep := c.Rep(fx.v1)
	if rep != fx.v0 || c.Rep(fx.v2) != fx.v0 {
		t.Fatalf("unexpected SCC shape: rep(v1)=%d rep(v2)=%d", rep, c.Rep(fx.v2))
	}

	cases := []struct {
		name string
		wrap func() check.View
		want string
	}{
		{
			name: "rep not idempotent",
			wrap: func() check.View {
				return &viewWrap{View: c, rep: func(n pag.NodeID) pag.NodeID {
					if n == fx.v2 {
						return fx.v1
					}
					return c.Rep(n)
				}}
			},
			want: "idempotent",
		},
		{
			name: "rep not smallest member",
			wrap: func() check.View {
				return &viewWrap{View: c, rep: func(n pag.NodeID) pag.NodeID {
					r := c.Rep(n)
					if r == fx.v0 {
						return fx.v2
					}
					return r
				}}
			},
			want: "smallest member",
		},
		{
			name: "SCC crossing methods",
			wrap: func() check.View {
				return &viewWrap{View: c, rep: func(n pag.NodeID) pag.NodeID {
					if n == fx.w0 {
						return fx.v0
					}
					return c.Rep(n)
				}}
			},
			want: "crosses methods",
		},
		{
			name: "non-representative with spans",
			wrap: func() check.View {
				return &viewWrap{View: c, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v1 {
						return c.LocalOut(fx.v0)
					}
					return c.LocalOut(n)
				}}
			},
			want: "non-representative",
		},
		{
			name: "condensed span loses an edge",
			wrap: func() check.View {
				return &viewWrap{View: c, gOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v0 {
						return nil
					}
					return c.GlobalOut(n)
				}}
			},
			want: "diverges from member union",
		},
		{
			name: "retained assign self-loop",
			wrap: func() check.View {
				loop := pag.Edge{Src: fx.v0, Dst: fx.v0, Kind: pag.Assign, Label: pag.NoLabel}
				return &viewWrap{View: c, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v0 {
						return append(append([]pag.Edge(nil), c.LocalOut(n)...), loop)
					}
					return c.LocalOut(n)
				}}
			},
			want: "assign self-loop",
		},
		{
			name: "flag disagrees with member aggregate",
			wrap: func() check.View {
				return &viewWrap{View: c, hasGIn: func(n pag.NodeID) bool {
					if c.Rep(n) != n {
						return c.HasGlobalIn(n)
					}
					return !c.HasGlobalIn(n)
				}}
			},
			want: "HasGlobalIn",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := check.Condensation(g, tc.wrap())
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnosis %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFingerprint(t *testing.T) {
	fx := buildCyclic(t)
	fp := check.Fingerprint(fx.g)
	if fp == 0 {
		t.Fatal("fingerprint must never be zero")
	}
	if again := check.Fingerprint(fx.g); again != fp {
		t.Fatalf("fingerprint unstable: %#x vs %#x", fp, again)
	}
	other := fixture.RandProgram(3, fixture.RandConfig{})
	if check.Fingerprint(other.G) == fp {
		t.Fatal("distinct graphs collided (astronomically unlikely on healthy hashing)")
	}
}

// buildOverlay applies one epoch to the cyclic fixture: redefine m1 so
// its assign cycle dissolves (only v0->v1 survives) and grow a new
// method with a node and edges.
func buildOverlay(t *testing.T, fx *cyclicFixture) *delta.Overlay {
	t.Helper()
	ov, err := delta.NewOverlay(fx.g)
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	l := ov.NewLog()
	l.RedefineMethod(fx.m1)
	l.AddEdge(pag.Edge{Src: fx.obj, Dst: fx.v0, Kind: pag.New, Label: pag.NoLabel})
	l.AddEdge(pag.Edge{Src: fx.v0, Dst: fx.v1, Kind: pag.Assign, Label: pag.NoLabel})
	l.AddEdge(pag.Edge{Src: fx.glob, Dst: fx.v2, Kind: pag.AssignGlobal, Label: pag.NoLabel})
	m3 := l.AddMethod("C.m3", fx.g.Node(fx.v0).Class)
	x0 := l.AddNode(pag.Local, m3, fx.g.Node(fx.v0).Class, "x0")
	l.AddEdge(pag.Edge{Src: fx.glob, Dst: x0, Kind: pag.AssignGlobal, Label: pag.NoLabel})
	if _, err := ov.Apply(l); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return ov
}

func TestOverlayHealthy(t *testing.T) {
	fx := buildCyclic(t)
	fp := check.Fingerprint(fx.g)
	ov := buildOverlay(t, fx)
	if err := check.Overlay(ov, ov.BaseView(), ov.CondView(), fx.g, fp); err != nil {
		t.Errorf("healthy overlay flagged: %v", err)
	}
	// The redefinition dissolved the assign cycle: every member must be
	// its own representative again.
	cv := ov.CondView()
	for _, n := range []pag.NodeID{fx.v0, fx.v1, fx.v2} {
		if cv.Rep(n) != n {
			t.Errorf("Rep(%d) = %d after dissolution", n, cv.Rep(n))
		}
	}
}

func TestOverlayCorruptions(t *testing.T) {
	fx := buildCyclic(t)
	fp := check.Fingerprint(fx.g)
	ov := buildOverlay(t, fx)
	base, cond := ov.BaseView(), ov.CondView()

	cases := []struct {
		name string
		fp   uint64
		wrap func() (base, cond check.View)
		want string
	}{
		{
			name: "base arrays written",
			fp:   fp + 1, // simulates a mutated base: the stored fingerprint no longer matches
			wrap: func() (check.View, check.View) { return base, cond },
			want: "fingerprint changed",
		},
		{
			name: "base span partition broken",
			fp:   fp,
			wrap: func() (check.View, check.View) {
				return &viewWrap{View: base, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v2 {
						return append(append([]pag.Edge(nil), base.LocalOut(n)...), base.GlobalIn(fx.v2)...)
					}
					return base.LocalOut(n)
				}}, cond
			},
			want: "partition broken",
		},
		{
			name: "rep not idempotent",
			fp:   fp,
			wrap: func() (check.View, check.View) {
				// v1 and v2 point at each other: idempotency and the
				// smallest-member rule both break.
				return base, &viewWrap{View: cond, rep: func(n pag.NodeID) pag.NodeID {
					switch n {
					case fx.v1:
						return fx.v2
					case fx.v2:
						return fx.v1
					}
					return cond.Rep(n)
				}}
			},
			want: "idempotent",
		},
		{
			name: "condensed span out of repair",
			fp:   fp,
			wrap: func() (check.View, check.View) {
				return base, &viewWrap{View: cond, localOut: func(n pag.NodeID) []pag.Edge {
					if n == fx.v0 {
						return nil
					}
					return cond.LocalOut(n)
				}}
			},
			want: "diverges from member union",
		},
		{
			name: "base flag disagrees",
			fp:   fp,
			wrap: func() (check.View, check.View) {
				return &viewWrap{View: base, hasGIn: func(n pag.NodeID) bool {
					if n == fx.w0 {
						return !base.HasGlobalIn(n)
					}
					return base.HasGlobalIn(n)
				}}, cond
			},
			want: "HasGlobalIn(base)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bv, cv := tc.wrap()
			err := check.Overlay(ov, bv, cv, fx.g, tc.fp)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnosis %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestOverlayTrivialDivergence(t *testing.T) {
	// Acyclic base: condensation is trivial and the condensed view must
	// coincide with the base view.
	p := fixture.RandProgram(2, fixture.RandConfig{})
	if c := p.G.Condensation(); c != nil && !c.Trivial() {
		t.Skip("seed produced a cycle; fixture guards usually prevent this")
	}
	ov, err := delta.NewOverlay(p.G)
	if err != nil {
		t.Fatal(err)
	}
	var some pag.NodeID = -1
	for i := 0; i < p.G.NumNodes(); i++ {
		if len(p.G.LocalOut(pag.NodeID(i))) > 0 {
			some = pag.NodeID(i)
			break
		}
	}
	if some < 0 {
		t.Fatal("no local edges in fixture")
	}
	cond := ov.CondView()
	w := &viewWrap{View: cond, localOut: func(n pag.NodeID) []pag.Edge {
		if n == some {
			return nil
		}
		return cond.LocalOut(n)
	}}
	err = check.Overlay(ov, ov.BaseView(), w, p.G, 0)
	if err == nil || !strings.Contains(err.Error(), "trivial condensation") {
		t.Fatalf("trivial-view divergence not detected: %v", err)
	}
}
