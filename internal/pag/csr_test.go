package pag

import (
	"errors"
	"strings"
	"testing"
)

// buildSmall constructs a two-method graph with both local and global
// edges touching one node, so every partition accessor has something to
// return.
func buildSmall(t *testing.T) (*Builder, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder()
	cls := b.Class("C", NoClass)
	m1 := b.Method("m1", cls)
	m2 := b.Method("m2", cls)
	v := b.Local(m1, "v", cls)
	w := b.Local(m1, "w", cls)
	x := b.Local(m2, "x", cls)
	o := b.Object(m1, "o", cls)
	f := b.G.AddField("f")
	b.Alloc(v, o)
	b.Copy(w, v)
	b.Load(w, v, f)
	cs := b.CallSite(m1, "")
	b.Arg(cs, v, x) // global edge out of v
	b.Ret(cs, x, w) // global edge into w
	return b, v, w
}

func TestPartitionAccessorsBothForms(t *testing.T) {
	for _, freeze := range []bool{false, true} {
		b, v, w := buildSmall(t)
		g := b.G
		if freeze {
			g.Freeze()
		}
		// Both forms keep every node's edges locals-first.
		out := g.Out(v)
		if len(out) != 3 || !out[0].Kind.IsLocal() || !out[1].Kind.IsLocal() || out[2].Kind.IsLocal() {
			t.Errorf("freeze=%v: Out(v) = %v, want locals-first partition", freeze, out)
		}
		in := g.In(w)
		if len(in) != 3 || !in[0].Kind.IsLocal() || !in[1].Kind.IsLocal() || in[2].Kind.IsLocal() {
			t.Errorf("freeze=%v: In(w) = %v, want locals-first partition", freeze, in)
		}
		if !freeze {
			continue // the partitioned accessors read the frozen layout only
		}
		// v: out = {assign->w, load->w (local)} + {entry->x (global)}.
		if got := len(g.LocalOut(v)); got != 2 {
			t.Errorf("LocalOut(v) = %d edges, want 2", got)
		}
		if got := len(g.GlobalOut(v)); got != 1 || g.GlobalOut(v)[0].Kind != Entry {
			t.Errorf("GlobalOut(v) = %v, want one entry edge", g.GlobalOut(v))
		}
		// w: in = {assign, load (local)} + {exit (global)}.
		if got := len(g.LocalIn(w)); got != 2 {
			t.Errorf("LocalIn(w) = %d edges, want 2", got)
		}
		if got := len(g.GlobalIn(w)); got != 1 || g.GlobalIn(w)[0].Kind != Exit {
			t.Errorf("GlobalIn(w) = %v, want one exit edge", g.GlobalIn(w))
		}
		// The base View reads the same spans.
		bv := g.View()
		if len(bv.LocalOut(v)) != 2 || len(bv.GlobalOut(v)) != 1 || len(bv.LocalIn(w)) != 2 || len(bv.GlobalIn(w)) != 1 {
			t.Errorf("View spans diverge from the graph's partitioned accessors")
		}
	}
}

// TestAdjacencyIsAppendSafe: returned slices are capacity-clamped, so an
// append by a confused caller copies instead of overwriting the
// neighbouring node's edges (the "must not be mutated" doc promise, now
// enforced for the append case).
func TestAdjacencyIsAppendSafe(t *testing.T) {
	for _, freeze := range []bool{false, true} {
		b, v, w := buildSmall(t)
		g := b.G
		if freeze {
			g.Freeze()
		}
		spans := [][]Edge{g.Out(v), g.In(w)}
		if freeze {
			spans = append(spans, g.LocalOut(v), g.GlobalOut(v), g.LocalIn(w), g.GlobalIn(w))
		}
		for _, s := range spans {
			if len(s) == 0 {
				continue
			}
			if cap(s) != len(s) {
				t.Fatalf("freeze=%v: adjacency slice has spare capacity %d > len %d", freeze, cap(s), len(s))
			}
		}
		before := append([]Edge(nil), g.Out(w)...)
		_ = append(g.Out(v), Edge{Kind: Assign}) // must copy, not clobber
		after := g.Out(w)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("freeze=%v: append through Out(v) corrupted Out(w)", freeze)
			}
		}
	}
}

func TestFrozenGraphPanicsOnMutation(t *testing.T) {
	b, v, _ := buildSmall(t)
	g := b.G
	g.Freeze()
	g.Freeze() // idempotent

	mustPanic := func(op string, f func()) *FrozenError {
		t.Helper()
		var got *FrozenError
		func() {
			defer func() {
				t.Helper()
				r := recover()
				if r == nil {
					t.Fatalf("%s on a frozen graph did not panic", op)
				}
				fe, ok := r.(*FrozenError)
				if !ok {
					t.Fatalf("%s panic = %v (%T), want *FrozenError", op, r, r)
				}
				if !errors.Is(fe, ErrFrozen) {
					t.Fatalf("%s panic does not wrap ErrFrozen", op)
				}
				if fe.Op != op || !strings.Contains(fe.Error(), "frozen") {
					t.Fatalf("%s panic = %v, want op %q in a frozen-graph message", op, fe, op)
				}
				got = fe
			}()
			f()
		}()
		return got
	}
	if fe := mustPanic("AddNode", func() { g.AddNode(Local, 0, NoClass, "z") }); fe.Method != 0 {
		t.Errorf("AddNode FrozenError.Method = %d, want 0", fe.Method)
	}
	fe := mustPanic("AddEdge", func() { g.AddEdge(Edge{Src: v, Dst: v, Kind: Assign, Label: NoLabel}) })
	if fe.Node != v {
		t.Errorf("AddEdge FrozenError.Node = %d, want %d", fe.Node, v)
	}
	if !strings.Contains(fe.Error(), g.NodeString(v)) {
		t.Errorf("AddEdge FrozenError message %q does not name node %s", fe.Error(), g.NodeString(v))
	}
}

func TestFrozenHasEdgeAndLayout(t *testing.T) {
	b, v, w := buildSmall(t)
	g := b.G
	have := Edge{Src: v, Dst: w, Kind: Assign, Label: NoLabel}
	haveGlobal := g.Out(v)[2] // the entry edge, after v's two locals
	mutLayout := g.Layout()
	if mutLayout.Frozen {
		t.Error("Layout.Frozen true before Freeze")
	}
	g.Freeze()
	if !g.HasEdge(have) || !g.HasEdge(haveGlobal) {
		t.Error("HasEdge lost edges after freeze")
	}
	if g.HasEdge(Edge{Src: w, Dst: v, Kind: Assign, Label: NoLabel}) {
		t.Error("HasEdge invented an edge after freeze")
	}
	frzLayout := g.Layout()
	if !frzLayout.Frozen {
		t.Error("Layout.Frozen false after Freeze")
	}
	if frzLayout.AdjacencyBytes >= mutLayout.AdjacencyBytes {
		t.Errorf("freezing did not shrink the estimated adjacency footprint: %d -> %d",
			mutLayout.AdjacencyBytes, frzLayout.AdjacencyBytes)
	}
	if frzLayout.EdgeSlots != 2*g.NumEdges() {
		t.Errorf("EdgeSlots = %d, want %d", frzLayout.EdgeSlots, 2*g.NumEdges())
	}
}

// TestValidateWorksFrozen: Validate reads through the accessors, so it
// still checks a frozen graph.
func TestValidateWorksFrozen(t *testing.T) {
	b, _, _ := buildSmall(t)
	b.G.Freeze()
	if err := b.G.Validate(); err != nil {
		t.Fatalf("frozen Validate: %v", err)
	}
}

// TestBuilderFinish: the one-call construction endpoint validates and
// freezes.
func TestBuilderFinish(t *testing.T) {
	b, _, _ := buildSmall(t)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Frozen() {
		t.Error("Finish did not freeze")
	}
	bad := NewBuilder()
	cls := bad.Class("C", NoClass)
	m := bad.Method("m", cls)
	v := bad.Local(m, "v", cls)
	gbl := bad.GlobalVar("g", cls)
	bad.G.AddEdge(Edge{Src: gbl, Dst: v, Kind: Assign, Label: NoLabel}) // invalid: assign touching a global
	if _, err := bad.Finish(); err == nil {
		t.Error("Finish accepted an invalid graph")
	}
}
