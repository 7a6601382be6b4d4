// Quickstart: build a 500-node static network, select contacts, and
// discover a resource — the minimal tour of the public API.
package main

import (
	"fmt"
	"log"

	"card"
)

func main() {
	// The paper's workhorse scenario: 500 nodes over 710x710 m, 50 m radio
	// range (Table 1, scenario 5).
	sim, err := card.NewSimulation(card.NetworkConfig{
		Nodes: 500, Width: 710, Height: 710, TxRange: 50, Seed: 42,
	}, card.Config{
		R:              3,  // proactive neighborhood radius (hops)
		MaxContactDist: 16, // contacts live between 2R and r hops away
		NoC:            5,  // contacts per node
		Depth:          2,  // query escalation: contacts, then contacts of contacts
	})
	if err != nil {
		log.Fatal(err)
	}

	added := sim.SelectContacts()
	fmt.Printf("selected %d contacts across %d nodes\n", added, sim.Nodes())
	fmt.Printf("mean reachability: %.1f%% at D=1, %.1f%% at D=2\n",
		sim.MeanReachability(1), sim.MeanReachability(2))

	// Inspect one node's contact table.
	src, dst := sim.RandomPair(7)
	fmt.Printf("\nnode %d's contacts:\n", src)
	for _, c := range sim.Contacts(src) {
		fmt.Printf("  contact %4d at %d hops (route %v...)\n", c.ID, c.Hops(), c.Path[:3])
	}

	// Discover a resource held by a random distant node.
	res, err := sim.QueryVia(card.SchemeCARD, src, dst)
	if err != nil {
		log.Fatal(err)
	}
	if res.Found {
		fmt.Printf("\nquery %d -> %d: found at contact level %d, %d-hop path, %d control msgs\n",
			src, dst, res.Depth, res.PathHops, res.Messages)
	} else {
		fmt.Printf("\nquery %d -> %d: not found within depth %d (%d control msgs)\n",
			src, dst, sim.Config().Depth, res.Messages)
	}

	// Compare with the flooding baseline on the same pair.
	fl, err := sim.QueryVia(card.SchemeFlood, src, dst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flooding the same query costs %d msgs\n", fl.Messages)
}
