// Sensorfield: resource discovery in a large static sensor network — the
// paper's motivating deployment where mobility-assisted schemes do not
// apply (§II) and energy per transmitted message is the budget that
// matters.
//
// A field of 900 sensors holds a handful of "sink" resources. Every sensor
// occasionally needs to find the nearest sink. The example compares the
// total control traffic of CARD against flooding and bordercasting for the
// same workload, then prints the energy story per discovery.
package main

import (
	"fmt"
	"log"

	"card"
)

func main() {
	const (
		sensors = 900
		side    = 950.0 // meters; density comparable to Table 1 scenario 8
		sinks   = 5
		lookups = 200
	)
	// Tuning follows the paper's Fig. 9 recipe for ~1000-node networks:
	// grow R and NoC with N so that depth-1/2 queries already cover most
	// of the field and deep (expensive) escalations stay rare.
	sim, err := card.NewSimulation(card.NetworkConfig{
		Nodes: sensors, Width: side, Height: side, TxRange: 50, Seed: 99,
	}, card.Config{
		R:              5,
		MaxContactDist: 22,
		NoC:            8,
		Depth:          3,
	})
	if err != nil {
		log.Fatal(err)
	}
	c := sim.Report(nil).Census
	fmt.Printf("sensor field: %d nodes, %d links, diameter %d hops, %.0f%% connected\n",
		sensors, c.Links, c.Diameter, 100*c.LargestComponentFrac)

	// One-time cost: contact setup.
	sim.SelectContacts()
	setupTotal := float64(sim.Messages().Total())
	fmt.Printf("contact setup: %.1f msgs/sensor (one-time)\n\n", setupTotal/sensors)

	// The sinks are the resources; each lookup asks a random sensor to
	// find a random sink.
	var sinkIDs []card.NodeID
	for i := 0; i < sinks; i++ {
		_, s := sim.RandomPair(uint64(500 + i))
		sinkIDs = append(sinkIDs, s)
	}

	var pairs []card.Pair
	for i := 0; i < lookups; i++ {
		src, _ := sim.RandomPair(uint64(1000 + i))
		sink := sinkIDs[i%len(sinkIDs)]
		if src == sink {
			continue
		}
		pairs = append(pairs, card.Pair{Src: src, Dst: sink})
	}
	// Every scheme answers the same pairs on the same topology, each in
	// one batch fanned across cores: CARD lookups are pure reads of the
	// standing contact tables, the baselines' of the topology.
	batch := func(scheme card.WorkloadScheme) (msgs int64, hits int) {
		res, err := sim.BatchQuery(scheme, pairs)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range res {
			msgs += r.Messages
			if r.Found {
				hits++
			}
		}
		return msgs, hits
	}
	cardMsgs, cardHit := batch(card.SchemeCARD)
	floodMsgs, floodHit := batch(card.SchemeFlood)
	bcMsgs, bcHit := batch(card.SchemeBordercast)

	fmt.Printf("%d sink lookups from random sensors:\n", lookups)
	fmt.Printf("  %-14s %9s %9s\n", "scheme", "msgs", "success")
	fmt.Printf("  %-14s %9d %8d%%\n", "CARD", cardMsgs, 100*cardHit/lookups)
	fmt.Printf("  %-14s %9d %8d%%\n", "flooding", floodMsgs, 100*floodHit/lookups)
	fmt.Printf("  %-14s %9d %8d%%\n", "bordercasting", bcMsgs, 100*bcHit/lookups)

	// Energy story: setup is one-time, lookups recur for the lifetime of
	// the field. Report the break-even point after which CARD's total
	// (setup + queries) undercuts flooding.
	cardPer := float64(cardMsgs) / lookups
	floodPer := float64(floodMsgs) / lookups
	if floodPer > cardPer {
		breakeven := setupTotal / (floodPer - cardPer)
		fmt.Printf("\nper lookup: CARD %.0f msgs vs flooding %.0f; one-time setup %.0f msgs\n",
			cardPer, floodPer, setupTotal)
		fmt.Printf("CARD's setup pays for itself after ~%.0f lookups — weeks, not years,\n", breakeven)
		fmt.Println("for a sensor field answering queries continuously")
	}
}
