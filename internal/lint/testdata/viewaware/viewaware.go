// Seeded-violation corpus for the viewaware pass: adjacency reads in
// package core that bypass pag.View. The pass is scoped by package name,
// so this file declares `package core` and imports the real layers.
package core

import (
	"dynsum/internal/delta"
	"dynsum/internal/pag"
)

func rawGraphRead(g *pag.Graph, n pag.NodeID) int {
	return len(g.LocalOut(n)) // want "dynsum/internal/pag.Graph.LocalOut call"
}

func rawFlagRead(g *pag.Graph, n pag.NodeID) bool {
	return g.HasLocalEdges(n) // want "dynsum/internal/pag.Graph.HasLocalEdges call"
}

// localLayer stands for any other adjacency layer a refactor might add.
type localLayer struct{ g *pag.Graph }

func (l localLayer) GlobalIn(n pag.NodeID) []pag.Edge { return nil }

func layerRead(l localLayer, n pag.NodeID) []pag.Edge {
	return l.GlobalIn(n) // want "localLayer.GlobalIn call"
}

// The view is the one sanctioned read path, whichever layer produced it.
func viewReads(g *pag.Graph, o *delta.Overlay, n pag.NodeID) int {
	v := g.Condensation().View()
	return len(v.LocalOut(n)) + len(o.BaseView().GlobalIn(n))
}

// Non-adjacency reads on the layers are free.
func structuralReads(g *pag.Graph, c *pag.Condensation, n pag.NodeID) int {
	if c.Rep(n) != n {
		return 0
	}
	return g.NumNodes() + g.NumEdges()
}
