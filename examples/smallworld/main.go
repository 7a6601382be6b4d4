// Smallworld: the paper's §I framing made visible. A dense MANET is a
// highly clustered graph with long characteristic paths; contacts act as
// Watts-Strogatz short cuts, collapsing the degrees of separation a query
// has to cross. The example measures how the view of the network grows as
// contacts and query depth increase.
package main

import (
	"fmt"
	"log"

	"card"
)

func main() {
	const n = 500
	fmt.Println("contacts as small-world short cuts (500 nodes, 710x710 m, 50 m range)")

	// Base graph: clustering and path lengths without any short cuts.
	base, err := card.NewSimulation(card.NetworkConfig{
		Nodes: n, Width: 710, Height: 710, TxRange: 50, Seed: 11,
	}, card.Config{R: 3, MaxContactDist: 12})
	if err != nil {
		log.Fatal(err)
	}
	c := base.Report(nil).Census
	fmt.Printf("base graph: clustering %.3f, avg path %.1f hops, diameter %d\n",
		c.MeanClustering, c.AvgHops, c.Diameter)
	fmt.Printf("(high clustering + long paths: a 'large world' before short cuts)\n\n")

	fmt.Printf("%-6s %12s %12s %12s %14s\n", "NoC", "reach D=1", "reach D=2", "reach D=3", "mean contacts")
	for _, noc := range []int{0, 2, 4, 8} {
		sim, err := card.NewSimulation(card.NetworkConfig{
			Nodes: n, Width: 710, Height: 710, TxRange: 50, Seed: 11,
		}, card.Config{R: 3, MaxContactDist: 16, NoC: noc, Depth: 3})
		if err != nil {
			log.Fatal(err)
		}
		sim.SelectContacts()
		fmt.Printf("%-6d %11.1f%% %11.1f%% %11.1f%% %14.2f\n",
			noc,
			sim.MeanReachability(1), sim.MeanReachability(2), sim.MeanReachability(3),
			sim.Report(nil).ContactsPerNode)
	}

	fmt.Println("\neach contact level multiplies the visible network: the tree of")
	fmt.Println("short cuts is what lets CARD query without flooding (paper §III.C.4)")
}
