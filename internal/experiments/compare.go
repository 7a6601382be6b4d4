package experiments

import (
	"fmt"

	"card/internal/bordercast"
	"card/internal/card"
	"card/internal/flood"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/xrand"
)

// queryWorkload draws q (src, dst) pairs uniformly from the largest
// connected component, mirroring "50 randomly selected destinations from
// 50 random sources".
func queryWorkload(net *manet.Network, q int, seed uint64) [][2]manet.NodeID {
	comp := net.Graph().LargestComponent()
	rng := xrand.New(seed).Derive(77)
	pairs := make([][2]manet.NodeID, q)
	for i := range pairs {
		src := comp[rng.Intn(len(comp))]
		dst := comp[rng.Intn(len(comp))]
		for dst == src && len(comp) > 1 {
			dst = comp[rng.Intn(len(comp))]
		}
		pairs[i] = [2]manet.NodeID{src, dst}
	}
	return pairs
}

// fig15Cell measures one (size, seed) cell of Fig. 15.
type fig15Cell struct {
	floodPerNode  float64
	borderPerNode float64
	cardPerNode   float64
	cardOverhead  float64
	cardSuccess   float64
}

func runFig15Cell(fc struct {
	Scenario Scenario
	NoC      int
	R        int
	MaxDist  int
}, scale float64, seed uint64) fig15Cell {
	sc := fc.Scenario.Scaled(scale)
	queries := 50
	if sc.N < 100 {
		queries = sc.N / 2
	}
	n := float64(sc.N)
	var out fig15Cell

	// The three mechanisms answer the same pairs on the same topology;
	// query traffic never feeds back into the overhead categories.
	net := sc.StaticNet(seed)
	pairs := queryWorkload(net, queries, seed)

	var sum int64
	for _, pr := range pairs {
		sum += flood.Query(net, net.Recorder(), pr[0], pr[1], -1, true).Messages
	}
	out.floodPerNode = float64(sum) / n

	// Bordercasting with QD1+QD2, zone radius = CARD's R (same proactive
	// substrate for a fair comparison).
	nb := neighborhood.NewOracle(net, fc.R)
	bc, err := bordercast.New(net, nb, bordercast.Config{Zone: fc.R, QD: bordercast.QD2})
	if err != nil {
		panic(err)
	}
	sum = 0
	for _, pr := range pairs {
		sum += bc.Query(net.Recorder(), pr[0], pr[1]).Messages
	}
	out.borderPerNode = float64(sum) / n

	// CARD with D=3 (the paper's 95 %-success configuration).
	cfg := card.Config{
		R: fc.R, MaxContactDist: fc.MaxDist, NoC: fc.NoC,
		Depth: 3, Method: card.EM, ValidatePeriod: 1,
	}
	prot, err := NewCARD(net, cfg, seed)
	if err != nil {
		panic(err)
	}
	prot.SelectAll(0)
	// One maintenance round so the overhead bar includes validation.
	prot.MaintainAll(1)
	out.cardOverhead = float64(net.Totals().Sum(overheadCats...)) / n

	sum = 0
	found := 0
	for _, pr := range pairs {
		res := prot.Query(pr[0], pr[1])
		sum += res.Messages
		if res.Found {
			found++
		}
	}
	out.cardPerNode = float64(sum) / n
	out.cardSuccess = 100 * float64(found) / float64(len(pairs))
	return out
}

// RunFig15 regenerates Fig. 15: querying traffic per node for flooding,
// bordercasting and CARD across three network sizes, plus CARD's
// selection+maintenance overhead and its query success rate.
func RunFig15(o Options) *Table {
	o.fill()
	cells := make([]fig15Cell, len(Fig9Configs)*o.Seeds)
	Parallel(len(cells), func(i int) {
		fc := Fig9Configs[i/o.Seeds]
		cells[i] = runFig15Cell(fc, o.Scale, uint64(i%o.Seeds)+1)
	})
	t := NewTable(
		fmt.Sprintf("Fig 15: querying traffic per node, 50 queries (avg of %d seeds)", o.Seeds),
		"N", "Flooding", "Bordercasting", "CARD", "CARD overhead", "CARD success%")
	for ci, fc := range Fig9Configs {
		var agg fig15Cell
		for s := 0; s < o.Seeds; s++ {
			c := cells[ci*o.Seeds+s]
			agg.floodPerNode += c.floodPerNode / float64(o.Seeds)
			agg.borderPerNode += c.borderPerNode / float64(o.Seeds)
			agg.cardPerNode += c.cardPerNode / float64(o.Seeds)
			agg.cardOverhead += c.cardOverhead / float64(o.Seeds)
			agg.cardSuccess += c.cardSuccess / float64(o.Seeds)
		}
		t.Add(fc.Scenario.Scaled(o.Scale).N,
			agg.floodPerNode, agg.borderPerNode, agg.cardPerNode,
			agg.cardOverhead, agg.cardSuccess)
	}
	return t
}

// RunAblationMethods compares the three contact-selection protocols on the
// workhorse scenario: selection traffic, backtracking, contacts found,
// contact distance, and the reachability they buy.
func RunAblationMethods(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	methods := []card.Method{card.PM1, card.PM2, card.EM}
	type row struct{ csq, back, contacts, dist, reach float64 }
	cells := make([]row, len(methods)*o.Seeds)
	Parallel(len(cells), func(i int) {
		m := methods[i/o.Seeds]
		seed := uint64(i%o.Seeds) + 1
		net := sc.StaticNet(seed)
		cfg := card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 1, Method: m}
		prot, err := NewCARD(net, cfg, seed)
		if err != nil {
			panic(err)
		}
		prot.SelectAll(0)
		n := float64(net.N())
		r := &cells[i]
		r.csq = float64(net.Totals().Get(manet.CatCSQ)) / n
		r.back = float64(net.Totals().Get(manet.CatBacktrack)) / n
		r.contacts = float64(prot.TotalContacts()) / n
		ds := prot.ContactDistances()
		if len(ds) > 0 {
			sum := 0
			for _, d := range ds {
				sum += d
			}
			r.dist = float64(sum) / float64(len(ds))
		}
		r.reach = prot.MeanReachability(1)
	})
	rows := make([]row, len(methods))
	for i, c := range cells {
		r := &rows[i/o.Seeds]
		s := float64(o.Seeds)
		r.csq += c.csq / s
		r.back += c.back / s
		r.contacts += c.contacts / s
		r.dist += c.dist / s
		r.reach += c.reach / s
	}
	t := NewTable(
		fmt.Sprintf("Ablation: selection method (N=%d, R=3, r=16, NoC=5)", sc.N),
		"Method", "CSQ/node", "Backtrack/node", "Contacts/node", "Mean dist", "Reach%")
	for i, m := range methods {
		r := rows[i]
		t.Add(m.String(), r.csq, r.back, r.contacts, r.dist, r.reach)
	}
	return t
}

// RunAblationRecovery quantifies what local recovery buys under mobility:
// contact survival and maintenance traffic with recovery on vs off.
func RunAblationRecovery(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	type row struct{ lost, recovered, maint, contacts float64 }
	cells := make([]row, 2*o.Seeds)
	Parallel(len(cells), func(i int) {
		disable := i/o.Seeds == 1
		seed := uint64(i%o.Seeds) + 1
		net, err := sc.MobileNet(seed, mobility.DefaultRWP())
		if err != nil {
			panic(err)
		}
		cfg := card.Config{
			R: 3, MaxContactDist: 12, NoC: 5, Depth: 1, Method: card.EM,
			ValidatePeriod: 1, DisableLocalRecovery: disable,
		}
		prot, err := NewCARD(net, cfg, seed)
		if err != nil {
			panic(err)
		}
		prot.SelectAll(0)
		for t := 0.25; t <= 10+1e-9; t += 0.25 {
			net.RefreshAt(t)
			if isMultiple(t, cfg.ValidatePeriod) {
				prot.MaintainAll(t)
			}
		}
		n := float64(net.N())
		st := prot.Stats()
		cells[i] = row{
			lost:      float64(st.ContactsLost) / n,
			recovered: float64(st.Recoveries) / n,
			maint:     float64(net.Totals().Sum(maintenanceCats...)) / n,
			contacts:  float64(prot.TotalContacts()) / n,
		}
	})
	rows := make([]row, 2)
	for i, c := range cells {
		r := &rows[i/o.Seeds]
		s := float64(o.Seeds)
		r.lost += c.lost / s
		r.recovered += c.recovered / s
		r.maint += c.maint / s
		r.contacts += c.contacts / s
	}
	t := NewTable(
		fmt.Sprintf("Ablation: local recovery over 10 s RWP (N=%d, R=3, r=12, NoC=5)", sc.N),
		"Recovery", "Lost/node", "Splices/node", "Maint msgs/node", "Final contacts/node")
	t.Add("on", rows[0].lost, rows[0].recovered, rows[0].maint, rows[0].contacts)
	t.Add("off", rows[1].lost, rows[1].recovered, rows[1].maint, rows[1].contacts)
	return t
}

// RunAblationQD compares bordercast query-detection modes: traffic and
// success per query.
func RunAblationQD(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	modes := []bordercast.QDMode{bordercast.QDNone, bordercast.QD1, bordercast.QD2}
	type row struct{ msgs, success float64 }
	cells := make([]row, len(modes)*o.Seeds)
	Parallel(len(cells), func(i int) {
		mode := modes[i/o.Seeds]
		seed := uint64(i%o.Seeds) + 1
		net := sc.StaticNet(seed)
		nb := neighborhood.NewOracle(net, 3)
		bc, err := bordercast.New(net, nb, bordercast.Config{Zone: 3, QD: mode})
		if err != nil {
			panic(err)
		}
		queries := 30
		found := 0
		var sum int64
		for _, pr := range queryWorkload(net, queries, seed) {
			res := bc.Query(net.Recorder(), pr[0], pr[1])
			sum += res.Messages
			if res.Found {
				found++
			}
		}
		cells[i] = row{
			msgs:    float64(sum) / float64(queries),
			success: 100 * float64(found) / float64(queries),
		}
	})
	rows := make([]row, len(modes))
	for i, c := range cells {
		r := &rows[i/o.Seeds]
		r.msgs += c.msgs / float64(o.Seeds)
		r.success += c.success / float64(o.Seeds)
	}
	t := NewTable(
		fmt.Sprintf("Ablation: bordercast query detection (N=%d, zone=3)", sc.N),
		"QD mode", "Msgs/query", "Success%")
	for i, m := range modes {
		t.Add(m.String(), rows[i].msgs, rows[i].success)
	}
	return t
}

// RunSmallWorld quantifies the small-world argument of §I: contacts as
// short cuts. It reports the base graph's clustering and characteristic
// path length, then the "degrees of separation" achievable through the
// contact tree as NoC grows.
func RunSmallWorld(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	net := sc.StaticNet(1)
	census := net.Graph().ComputeCensus()
	t := NewTable(
		fmt.Sprintf("Small-world view (N=%d): clustering=%.3f, avg path=%.2f hops",
			sc.N, census.MeanClustering, census.AvgHops),
		"NoC", "Reach% D=1", "Reach% D=2", "Reach% D=3")
	for _, noc := range []int{1, 3, 5, 8} {
		cfg := card.Config{R: 3, MaxContactDist: 16, NoC: noc, Depth: 3, Method: card.EM}
		prot, err := NewCARD(net, cfg, uint64(noc))
		if err != nil {
			panic(err)
		}
		prot.SelectAll(0)
		t.Add(noc, prot.MeanReachability(1), prot.MeanReachability(2), prot.MeanReachability(3))
	}
	return t
}
