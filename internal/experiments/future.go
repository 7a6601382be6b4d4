package experiments

import (
	"fmt"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/manet"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/xrand"
)

// RunAblationMobility implements the paper's footnote 1 / §V future work:
// "different mobility models may have different effects on performance of
// CARD". It runs the same 10 s maintenance workload under every movement
// structure the scenario engine offers — Static, RWP, bounded RandomWalk,
// Gauss–Markov drift, reference-point group mobility — plus RWP with node
// churn, and compares contact survival and overhead. Rows run through the
// engine itself (scheduled maintenance every ValidatePeriod, churn expiry
// between rounds), so the ablation measures exactly what preset runs do.
func RunAblationMobility(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	models := []struct {
		name string
		mut  func(*engine.NetworkConfig)
	}{
		{"static", func(nc *engine.NetworkConfig) { nc.Mobility = engine.Static }},
		{"waypoint", func(nc *engine.NetworkConfig) { nc.Mobility = engine.RandomWaypoint }},
		{"walk", func(nc *engine.NetworkConfig) {
			nc.Mobility = engine.RandomWalk
			nc.WalkSpeed, nc.WalkEpoch = 10, 2
		}},
		{"gauss-markov", func(nc *engine.NetworkConfig) { nc.Mobility = engine.GaussMarkov }},
		{"group", func(nc *engine.NetworkConfig) {
			nc.Mobility = engine.GroupMobility
			nc.Groups = sc.N / 25
			nc.GroupRadius = 3 * sc.TxRange
			nc.MinSpeed, nc.MaxSpeed, nc.Pause = 1, 5, 5
		}},
		{"waypoint+churn", func(nc *engine.NetworkConfig) {
			nc.Mobility = engine.RandomWaypoint
			nc.ChurnMeanUp, nc.ChurnMeanDown = 8, 3
		}},
	}
	type row struct{ lost, expired, splices, overhead, contacts float64 }
	cells := make([]row, len(models)*o.Seeds)
	Parallel(len(cells), func(i int) {
		model := models[i/o.Seeds]
		seed := uint64(i%o.Seeds) + 1
		nc := engine.NetworkConfig{
			Nodes: sc.N, Width: sc.Area.W, Height: sc.Area.H, TxRange: sc.TxRange,
			Seed: seed ^ uint64(sc.ID)<<32,
		}
		model.mut(&nc)
		cfg := card.Config{R: 3, MaxContactDist: 12, NoC: 5, Depth: 1, Method: card.EM, ValidatePeriod: 1}
		e, err := engine.New(nc, cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: abl-mobility %s: %v", model.name, err))
		}
		e.SelectContacts()
		for t := 0.25; t <= 10+1e-9; t += 0.25 {
			e.Advance(0.25)
		}
		n := float64(e.Nodes())
		st := e.Stats()
		cells[i] = row{
			lost:     float64(st.ContactsLost) / n,
			expired:  float64(st.ContactsExpired) / n,
			splices:  float64(st.Recoveries) / n,
			overhead: float64(e.Network().Totals().Sum(overheadCats...)) / n,
			contacts: float64(e.Protocol().TotalContacts()) / n,
		}
	})
	rows := make([]row, len(models))
	for i, c := range cells {
		r := &rows[i/o.Seeds]
		s := float64(o.Seeds)
		r.lost += c.lost / s
		r.expired += c.expired / s
		r.splices += c.splices / s
		r.overhead += c.overhead / s
		r.contacts += c.contacts / s
	}
	t := NewTable(
		fmt.Sprintf("Ablation: mobility model over 10 s (N=%d, R=3, r=12, NoC=5)", sc.N),
		"Mobility", "Lost/node", "Expired/node", "Splices/node", "Overhead/node", "Final contacts/node")
	for i, m := range models {
		r := rows[i]
		t.Add(m.name, r.lost, r.expired, r.splices, r.overhead, r.contacts)
	}
	return t
}

// RunReplication implements the paper's §V "resource distributions"
// future work: how replication changes discovery cost and success for
// CARD vs flooding vs expanding-ring anycast.
func RunReplication(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	replicas := []int{1, 2, 4, 8, 16}
	type row struct{ cardMsgs, cardHit, floodMsgs, ringMsgs float64 }
	cells := make([]row, len(replicas)*o.Seeds)
	Parallel(len(cells), func(i int) {
		k := replicas[i/o.Seeds]
		seed := uint64(i%o.Seeds) + 1
		net := sc.StaticNet(seed)
		cfg := card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2, Method: card.EM}
		prot, err := NewCARD(net, cfg, seed)
		if err != nil {
			panic(err)
		}
		prot.SelectAll(0)
		// One directory the three arms share; lookup q places resource q
		// just before asking for it.
		dir := resource.NewDirectory(sc.N)
		worker := func(name string) scheme.Worker {
			sch, err := scheme.New(name, scheme.Env{Net: net, Prot: prot, Dir: dir})
			if err != nil {
				panic(err)
			}
			return sch.Worker()
		}
		cardW, floodW, ringW := worker("card"), worker("flood"), worker("ring")

		rng := xrand.New(seed).Derive(55)
		const lookups = 40
		var r row
		for q := 0; q < lookups; q++ {
			id := resource.ID(q)
			dir.PlaceReplicas(id, k, rng.Derive(uint64(q)))
			src := manet.NodeID(rng.Intn(sc.N))
			rc := cardW.Discover(src, id)
			r.cardMsgs += float64(rc.Messages) / lookups
			if rc.Found {
				r.cardHit += 100.0 / lookups
			}
			r.floodMsgs += float64(floodW.Discover(src, id).Messages) / lookups
			r.ringMsgs += float64(ringW.Discover(src, id).Messages) / lookups
		}
		cells[i] = r
	})
	rows := make([]row, len(replicas))
	for i, c := range cells {
		r := &rows[i/o.Seeds]
		s := float64(o.Seeds)
		r.cardMsgs += c.cardMsgs / s
		r.cardHit += c.cardHit / s
		r.floodMsgs += c.floodMsgs / s
		r.ringMsgs += c.ringMsgs / s
	}
	t := NewTable(
		fmt.Sprintf("Extension: resource replication (N=%d, R=3, r=16, NoC=5, D=2)", sc.N),
		"Replicas", "CARD msgs/lookup", "CARD success%", "Flood msgs/lookup", "Ring msgs/lookup")
	for i, k := range replicas {
		r := rows[i]
		t.Add(k, r.cardMsgs, r.cardHit, r.floodMsgs, r.ringMsgs)
	}
	return t
}
