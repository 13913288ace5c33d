// Quickstart: build a tiny Pointer Assignment Graph with the builder API,
// run a DYNSUM points-to query, and inspect the summary cache.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"dynsum/internal/core"
	"dynsum/internal/pag"
)

func main() {
	// Program under analysis (one library method, two call sites):
	//
	//	Object id(Object p) { return p; }
	//	void main() {
	//	    a = new A(); x = id(a);
	//	    b = new B(); y = id(b);
	//	}
	b := pag.NewBuilder()
	object := b.Class("Object", pag.NoClass)
	aCls := b.Class("A", object)
	bCls := b.Class("B", object)

	id := b.Method("Lib.id", object)
	p := b.Local(id, "p", object)
	ret := b.Local(id, "ret", object)
	b.Copy(ret, p)

	main := b.Method("Main.main", object)
	a := b.Local(main, "a", aCls)
	b.NewObject(a, "objA", aCls)
	x := b.Local(main, "x", object)
	bb := b.Local(main, "b", bCls)
	b.NewObject(bb, "objB", bCls)
	y := b.Local(main, "y", object)

	b.Call(main, id, "main:1", []pag.NodeID{a}, []pag.NodeID{p}, ret, x)
	b.Call(main, id, "main:2", []pag.NodeID{bb}, []pag.NodeID{p}, ret, y)

	// Finish validates the graph and freezes it into the immutable CSR
	// layout the engines read; later changes arrive as delta epochs.
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}

	// A context-sensitive demand query: x and y go through the same
	// library method but must not be confused.
	engine := core.NewDynSum(g, core.Config{}, nil)
	for _, q := range []struct {
		name string
		node pag.NodeID
	}{{"x", x}, {"y", y}} {
		pts, err := engine.PointsTo(q.node)
		if err != nil {
			panic(err)
		}
		fmt.Printf("pts(%s) = %s\n", q.name, pts.FormatObjects(g))
	}

	m := engine.Metrics()
	fmt.Printf("\nsummaries cached: %d\n", engine.SummaryCount())
	fmt.Printf("cache hits: %d (the second query reused the library summary)\n", m.CacheHits)
	fmt.Printf("work: %d edge traversals, %d PPTA visits\n", m.EdgesTraversed, m.PPTAVisits)
}
