// Rescue: a mobile search-and-rescue network — the paper's dynamic
// deployment. 250 responders move under random-waypoint mobility; the
// contact architecture must survive link churn through periodic validation
// and local recovery while the mission keeps querying for role-holders
// (medic, relay, command).
package main

import (
	"fmt"
	"log"

	"card"
)

func main() {
	sim, err := card.NewSimulation(card.NetworkConfig{
		Nodes: 250, Width: 710, Height: 710, TxRange: 50,
		Mobility: card.RandomWaypoint,
		MinSpeed: 1, MaxSpeed: 10, // people and vehicles, not aircraft
		Seed: 2026,
	}, card.Config{
		R:              4,
		MaxContactDist: 16,
		NoC:            6,
		Depth:          2,
		ValidatePeriod: 1, // validate contact paths every second
	})
	if err != nil {
		log.Fatal(err)
	}

	sim.SelectContacts()
	fmt.Printf("t=0s: %d responders, initial contact setup done\n", sim.Nodes())

	// Role-holders to be discovered during the mission.
	var roles []card.NodeID
	for i := 0; i < 6; i++ {
		_, r := sim.RandomPair(uint64(40 + i))
		roles = append(roles, r)
	}

	// 20-second mission, reporting every 4 seconds.
	prevLost, prevSplices := int64(0), int64(0)
	for window := 1; window <= 5; window++ {
		sim.Advance(4)
		st := sim.Stats()
		lost := st.ContactsLost - prevLost
		splices := st.Recoveries - prevSplices
		prevLost, prevSplices = st.ContactsLost, st.Recoveries

		var lookups []card.Pair
		for i, role := range roles {
			src, _ := sim.RandomPair(uint64(window*100 + i))
			if src == role {
				continue
			}
			lookups = append(lookups, card.Pair{Src: src, Dst: role})
		}
		res, err := sim.BatchQuery(card.SchemeCARD, lookups)
		if err != nil {
			log.Fatal(err)
		}
		b := sim.Report(res).Batch
		fmt.Printf("t=%2.0fs: reach %.0f%% | window: %2d contacts lost, %2d paths re-spliced | %d/%d role lookups ok (%d msgs)\n",
			sim.Now(), sim.MeanReachability(2), lost, splices, b.Found, b.Queries, b.Messages)
	}

	st := sim.Stats()
	m := sim.Messages()
	total := float64(m.Total())
	fmt.Printf("\nmission totals: %d contacts selected, %d lost, %d local recoveries (%d recovery failures)\n",
		st.ContactsSelected, st.ContactsLost, st.Recoveries, st.RecoveryFailures)
	fmt.Printf("control traffic per responder: %.1f msgs (%.1f%% validation, %.1f%% selection)\n",
		total/float64(sim.Nodes()), 100*float64(m.Validation+m.Recovery)/total, 100*float64(m.Selection+m.Backtrack)/total)
}
