// Idesession: DYNSUM in the environment the paper targets (§1, §7): an IDE
// issuing many queries against a program that keeps changing. The engine
// persists its summary cache across queries; when a method is edited, only
// that method's summaries are invalidated and the next queries rebuild
// just the lost part. The edit arrives the way every program change does:
// as a delta epoch (RedefineMethod plus the new body) applied to the
// frozen graph the engine reads.
//
//	go run ./examples/idesession
package main

import (
	"fmt"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/pag"
)

func main() {
	// A mid-sized synthetic program (the "project" open in the IDE).
	prof := benchgen.ProfileByNameMust("luindex").Scaled(0.05)
	prog := benchgen.Generate(prof, 42)
	g := prog.G
	fmt.Printf("project: %s\n\n", g.Stats())

	engine := core.NewDynSum(g, core.Config{}, nil)

	// The user inspects a few dozen variables (hover = points-to query).
	queries := make([]pag.NodeID, 0, 40)
	for _, c := range prog.Casts {
		queries = append(queries, c.Var)
		if len(queries) == 40 {
			break
		}
	}

	session := func(tag string) {
		before := *engine.Metrics()
		for _, q := range queries {
			engine.PointsTo(q) // budget failures are fine here
		}
		after := *engine.Metrics()
		fmt.Printf("%-22s %6d edge traversals, %4d summaries computed, %4d reused, cache=%d\n",
			tag,
			after.EdgesTraversed-before.EdgesTraversed,
			after.Summaries-before.Summaries,
			after.CacheHits-before.CacheHits,
			engine.SummaryCount())
	}

	session("cold cache:")
	session("warm cache:")

	// The user edits one library method: its summaries are stale.
	var victim pag.MethodID
	for m := 0; m < g.NumMethods(); m++ {
		if g.MethodInfo(pag.MethodID(m)).Name == "lib.set1" {
			victim = pag.MethodID(m)
		}
	}
	// The new body: the old statements plus one fresh allocation.
	log, err := engine.NewDeltaLog()
	if err != nil {
		panic(err)
	}
	log.RedefineMethod(victim)
	var target pag.NodeID = pag.NoNode
	for n := 0; n < g.NumNodes(); n++ {
		id := pag.NodeID(n)
		if nd := g.Node(id); nd.Method == victim {
			if nd.Kind == pag.Local && target == pag.NoNode {
				target = id
			}
			for _, e := range g.Out(id) {
				if e.Kind.IsLocal() {
					log.AddEdge(e)
				}
			}
		}
	}
	if target != pag.NoNode {
		obj := log.AddNode(pag.Object, victim, g.Node(target).Class, "edit.o")
		log.AddEdge(pag.Edge{Src: obj, Dst: target, Kind: pag.New, Label: pag.NoLabel})
	}
	res, err := engine.ApplyDelta(log)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nedit %s: %d summaries invalidated\n\n", g.MethodInfo(victim).Name, res.InvalidatedSummaries)

	session("after edit:")
	session("warm again:")

	fmt.Println("\nThe after-edit pass redoes only the invalidated method's work —")
	fmt.Println("the incremental behaviour that makes dynamic summaries suit IDEs.")
}
