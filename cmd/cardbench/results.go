package main

import (
	"fmt"
	"time"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/manet"
	"card/internal/neighborhood"
	"card/internal/workload"
	"card/internal/xrand"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Valid is false when any output check failed; the process then exits
	// non-zero.
	Valid     bool    `json:"valid"`
	Attempted int     `json:"attempted"` // queries simulated in the measured phases
	Failed    int     `json:"failed"`    // outcomes that contradict themselves, plus failed checks
	Checks    []check `json:"checks"`
	// EndToEnd comes from the end-to-end phase; under -trace 1 that phase
	// is a third as long and only PerLayer is the run's product.
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// Samples states how many measurements stand behind the figures.
	Samples     map[string]int   `json:"samples"`
	StateDigest string           `json:"state_digest"`
	Manifest    workloadManifest `json:"manifest"`
}

// workloadManifest says what exactly was run for one workload.
type workloadManifest struct {
	Net     string          `json:"net"` // engine.DescribeNet
	Card    card.Config     `json:"card"`
	Traffic workload.Config `json:"traffic"`
	Arms    []string        `json:"arms"`
	Phases  []phaseInfo     `json:"phases"`
	Model   string          `json:"model"`
}

// runWorkload runs every arm of w and assembles the result. self is the
// process-wide self-check, recorded with every workload's own checks.
func runWorkload(w workloadDef, opt options, self check) (*result, error) {
	res := &result{
		Workload: w.Name, Seed: opt.Seed,
		Samples:  map[string]int{},
		Manifest: workloadManifest{Arms: w.Arms, Model: "unvalidated: the repository holds no reference results, so no error figure is given"},
	}
	var arms []*armRun
	for _, scheme := range w.Arms {
		a, err := runArm(w, scheme, opt)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, scheme, err)
		}
		res.Manifest.Net = engine.DescribeNet(a.Net)
		res.Manifest.Card = a.Eng.Config()
		res.Manifest.Traffic = a.E2E.Traffic
		res.Manifest.Phases = append(res.Manifest.Phases, a.PhaseLog...)
		a.Eng = nil // the next arm's heap readings must not include this engine
		arms = append(arms, a)
	}

	digest := newFNV()
	for _, a := range arms {
		res.Checks = append(res.Checks, a.Checks...)
		res.Failed += a.BadOutput
		res.Attempted += a.E2E.Report.Queries
		if a.Par != nil {
			res.Attempted += a.Par.Report.Queries
		}
		if a.Replay != nil {
			res.Attempted += len(a.Replay.Outcomes)
		}
		digest.word(a.Digest)
	}
	res.StateDigest = fmt.Sprintf("%016x", uint64(digest))
	var err error
	for _, a := range arms[1:] {
		if a.E2E.Report.Queries != arms[0].E2E.Report.Queries {
			err = fmt.Errorf("%s was offered %d queries, %s %d",
				a.Scheme, a.E2E.Report.Queries, arms[0].Scheme, arms[0].E2E.Report.Queries)
		}
	}
	res.Checks = append(res.Checks, newCheck("every arm was offered the same number of queries", err), self)

	res.EndToEnd = res.endToEnd(arms)
	if arms[0].Replay != nil {
		res.PerLayer = res.perLayer(arms)
		res.Samples["par_gomaxprocs"] = opt.NProc
	}
	res.Valid = true
	for _, c := range res.Checks {
		if !c.OK {
			res.Valid = false
			res.Failed++
		}
	}
	return res, nil
}

// withUnits attaches each defined metric's unit to its value, and fails
// loudly if the code and the table ever disagree on the set of names.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("cardbench: metric " + d.Name + " is defined but not computed")
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		panic(fmt.Sprintf("cardbench: %d metrics computed, %d defined", len(values), len(defs)))
	}
	return out
}

const mb = 1e6

// endToEnd pools the arms' end-to-end phases: tick samples, queries,
// messages and allocation deltas are pooled; set-up, live heap and
// reachability are means over arms.
func (res *result) endToEnd(arms []*armRun) map[string]metric {
	var refresh, round []float64
	var setup, heap, reach, host, sim, queryHost float64
	var allocB, mallocs uint64
	var queries, found, executed, reachN int
	var msgs, overhead int64
	nodes := 0
	for _, a := range arms {
		ph := a.E2E
		refresh = append(refresh, ph.Drv.refresh...)
		round = append(round, ph.Drv.round...)
		totals := make([]float64, len(a.Setups))
		for i, st := range a.Setups {
			totals[i] = st.Total
		}
		setup += median(totals)
		heap += float64(a.HeapLive)
		reach += a.Reach
		reachN += a.ReachN
		host += ph.HostS
		sim += ph.SimS
		queryHost += ph.HostS - ph.Drv.advance.Seconds()
		allocB += ph.Mem.AllocBytes
		mallocs += ph.Mem.Mallocs
		queries += ph.Report.Queries
		found += ph.Report.Found
		m, n := queryTraffic(ph.Report.Outcomes)
		msgs += m
		executed += n
		overhead += ph.Msgs.Total() - ph.Msgs.Sum(manet.CatQuery, manet.CatReply)
		nodes = ph.Drv.Nodes()
	}
	k := float64(len(arms))
	res.Samples["setups_per_arm"] = len(arms[0].Setups)
	res.Samples["refresh_ticks"] = len(refresh)
	res.Samples["round_ticks"] = len(round)
	res.Samples["queries"] = queries
	res.Samples["queries_executed"] = executed
	res.Samples["reach_nodes"] = reachN
	return withUnits(endToEnd, map[string]float64{
		"setup_s":              setup / k,
		"refresh_ms_p50":       median(refresh),
		"round_ms_p50":         median(round),
		"query_us":             1e6 * queryHost / float64(queries),
		"sim_rate":             sim / host,
		"alloc_mb_per_sim_s":   float64(allocB) / mb / sim,
		"allocs_per_sim_s":     float64(mallocs) / sim,
		"heap_live_mb":         heap / k / mb,
		"found_pct":            100 * float64(found) / float64(queries),
		"msgs_per_query":       float64(msgs) / float64(executed),
		"overhead_msgs_node_s": float64(overhead) / float64(nodes) / sim,
		"reach_pct":            reach / k,
	})
}

// layerProbe holds the figures probeLayers samples from a finished engine.
type layerProbe struct {
	Links, Contacts float64
	BFSUS, ViewUS   float64
	BallSize        float64
}

const (
	bfsSample  = 256
	viewSample = 1024
)

// probeLayers times the two read paths the replay cannot isolate —
// a bounded BFS on the graph, and one neighborhood view — on seed-sampled
// nodes of the finished engine.
func (a *armRun) probeLayers(seed uint64) {
	e := a.Eng
	g, nb := e.Network().Graph(), e.Neighborhood()
	rng := xrand.New(seed).Derive(0x9a0be)
	p := &a.Probe
	p.Links = float64(g.Links())
	p.Contacts = float64(e.Protocol().TotalContacts()) / float64(e.Nodes())

	t0 := time.Now()
	for i := 0; i < bfsSample; i++ {
		g.BoundedBFS(engine.NodeID(rng.Intn(e.Nodes())), nb.R())
	}
	p.BFSUS = us(time.Since(t0)) / bfsSample

	// A resident oracle's view cost is its warm sweep over N; an on-demand
	// cache is timed directly, on sampled nodes that are mostly not
	// resident (the cache holds a quarter of them).
	var members int
	t0 = time.Now()
	for i := 0; i < viewSample; i++ {
		members += len(nb.Members(engine.NodeID(rng.Intn(e.Nodes()))))
	}
	if _, resident := nb.(neighborhood.Warmer); !resident {
		p.ViewUS = us(time.Since(t0)) / viewSample
	} else if r := a.Replay; r != nil {
		p.ViewUS = 1000 * median(r.Warm) / float64(e.Nodes())
	}
	p.BallSize = float64(members) / viewSample
}

// perLayer assembles the per-layer table from the replay phase, the
// set-up split, the par phase and the layer probes.
func (res *result) perLayer(arms []*armRun) map[string]metric {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	var refresh, step, update, warm, maintain, expire []float64
	var schemeMaintain, flush, moved, changed, flips []float64
	var roundAdvance, roundRefresh, e2eRound, e2eRefresh, e2eGaps, parRound, parGaps, roundNodes []float64
	var msgs manet.Counters
	var lost, recoveries, boundDrops, expired int64
	var rounds, fullRebuilds, ticks, queries int
	var replayTick, replaySim, e2eHost, e2eSim float64
	var gcCycles uint32
	var gcPause, heapSys uint64
	k := float64(len(arms))
	dirty := false
	nodes := 0.0
	for _, a := range arms {
		r, last := a.Replay, a.Setups[len(a.Setups)-1]
		nodes = float64(a.E2E.Drv.Nodes())
		dirty = r.Dirty
		refresh = append(refresh, r.Refresh...)
		step = append(step, r.Step...)
		for i, d := range r.Refresh {
			if i < len(r.Step) {
				d -= r.Step[i]
			}
			update = append(update, d)
		}
		warm = append(warm, r.Warm...)
		maintain = append(maintain, r.Maintain...)
		expire = append(expire, r.Expire...)
		schemeMaintain = append(schemeMaintain, r.SchemeMaintain...)
		flush = append(flush, r.FlushUS...)
		moved = append(moved, r.Moved...)
		changed = append(changed, r.Changed...)
		flips = append(flips, r.Flips...)
		roundAdvance = append(roundAdvance, r.RoundAdvance...)
		roundRefresh = append(roundRefresh, r.RoundRefresh...)
		r.Msgs.AddTo(&msgs)
		lost += r.Lost
		recoveries += r.Recoveries
		boundDrops += r.BoundDrops
		expired += r.Expired
		rounds += r.Rounds
		fullRebuilds += r.FullRebuilds
		replayTick += r.TickHostS
		replaySim += r.SimS

		e2eRound = append(e2eRound, a.E2E.Drv.round...)
		e2eRefresh = append(e2eRefresh, a.E2E.Drv.refresh...)
		e2eGaps = append(e2eGaps, a.E2E.Drv.gaps...)
		roundNodes = append(roundNodes, a.E2E.Drv.roundNodes...)
		parRound = append(parRound, a.Par.Drv.round...)
		parGaps = append(parGaps, a.Par.Drv.gaps...)
		ticks += len(a.E2E.Drv.gaps)
		queries += a.E2E.Report.Queries
		e2eHost += a.E2E.HostS
		e2eSim += a.E2E.SimS
		gcCycles += a.E2E.Mem.GCCycles
		gcPause += a.E2E.Mem.GCPauseNS
		if a.E2E.Mem.HeapSys > heapSys {
			heapSys = a.E2E.Mem.HeapSys
		}

		v["card.select_s"] += last.Select / k
		v["engine.new_s"] += last.New / k
		v["topology.links"] += a.Probe.Links / k
		v["topology.bfs_us"] += a.Probe.BFSUS / k
		v["neighborhood.view_us"] += a.Probe.ViewUS / k
		v["neighborhood.ball_size"] += a.Probe.BallSize / k
		v["card.contacts_per_node"] += a.Probe.Contacts / k
		v["scheme.setup_ms"] += r.SetupMS / k

		m, executed := queryTraffic(r.Outcomes)
		hits := 0
		for _, o := range r.Outcomes {
			if o.Found {
				hits++
			}
		}
		s := "scheme." + a.Scheme
		v[s+".discover_us_p50"] = median(r.DiscoverUS)
		v[s+".discover_us_p95"] = quantile(r.DiscoverUS, 0.95)
		if executed > 0 {
			v[s+".msgs_mean"] = float64(m) / float64(executed)
			v[s+".alloc_b_query"] = float64(r.DiscoverAllocB) / float64(executed)
		}
		if len(r.Outcomes) > 0 {
			v[s+".found_pct"] = 100 * float64(hits) / float64(len(r.Outcomes))
		}
		res.Samples[s+".queries"] = len(r.Outcomes)
	}
	res.Samples["replay_ticks"] = len(warm)
	res.Samples["replay_rounds"] = rounds
	res.Samples["replay_refreshes"] = len(refresh)
	res.Samples["par_round_ticks"] = len(parRound)

	v["mobility.step_ms_p50"] = median(step)
	v["mobility.moved_per_tick"] = mean(moved)
	v["topology.update_ms_p50"] = median(update)
	v["topology.changed_per_tick"] = mean(changed)
	v["topology.full_rebuilds"] = float64(fullRebuilds)
	v["manet.refresh_ms_p50"] = median(refresh)
	v["manet.refresh_ms_max"] = maxOf(refresh)
	v["manet.flips_per_tick"] = mean(flips)
	if total := msgs.Total(); total > 0 {
		v["manet.retry_share_pct"] = 100 * float64(msgs.Get(manet.CatRetry)) / float64(total)
	}
	v["neighborhood.warm_ms_p50"] = median(warm)
	v["card.select_us_node"] = 1e6 * v["card.select_s"] / nodes
	v["card.maintain_ms_p50"] = median(maintain)
	v["card.maintain_us_node"] = 1000 * median(maintain) / nodes
	v["card.expire_ms_p50"] = median(expire)
	perNodeS := nodes * replaySim
	v["card.validate_msgs"] = float64(msgs.Get(manet.CatValidate)) / perNodeS
	v["card.recovery_msgs"] = float64(msgs.Get(manet.CatRecovery)) / perNodeS
	v["card.select_msgs"] = float64(msgs.Get(manet.CatCSQ)) / perNodeS
	v["card.backtrack_msgs"] = float64(msgs.Get(manet.CatBacktrack)) / perNodeS
	if rounds > 0 {
		v["card.lost"] = float64(lost) / float64(rounds)
		v["card.recoveries"] = float64(recoveries) / float64(rounds)
		v["card.bound_drops"] = float64(boundDrops) / float64(rounds)
		v["card.expired"] = float64(expired) / float64(rounds)
	}
	v["scheme.maintain_ms_p50"] = median(schemeMaintain)
	v["scheme.flush_us"] = median(flush)
	v["workload.batch_ms_p50"] = median(e2eGaps)
	v["workload.batch_queries"] = float64(queries) / float64(ticks)

	var pct int
	v["engine.refresh_ms_tail"], pct = tail(e2eRefresh)
	res.Samples["refresh_tail_percentile"] = pct
	v["engine.round_ms_tail"], pct = tail(e2eRound)
	res.Samples["round_tail_percentile"] = pct
	v["engine.round_nodes"] = mean(roundNodes)
	if n := mean(roundNodes); n > 0 {
		v["engine.round_us_node"] = 1000 * median(e2eRound) / n
	}
	if dirty {
		// The round tick's Advance minus the refresh: dirty expansion,
		// Retain, the list build and the restricted round.
		self := make([]float64, len(roundAdvance))
		for i := range self {
			self[i] = roundAdvance[i] - roundRefresh[i]
		}
		v["engine.round_self_ms"] = median(self)
	} else {
		// What the engine's round tick costs beyond the layer calls the
		// replay makes in its place.
		v["engine.round_self_ms"] = median(e2eRound) - median(roundAdvance)
	}
	if m := median(parRound); m > 0 {
		v["engine.par_speedup_round"] = median(e2eRound) / m
	}
	if m := median(parGaps); m > 0 {
		v["engine.par_speedup_query"] = median(e2eGaps) / m
	}
	v["go.gc_cycles"] = float64(gcCycles)
	v["go.gc_pause_ms"] = float64(gcPause) / 1e6
	v["go.heap_sys_mb"] = float64(heapSys) / mb
	v["trace.overhead_pct"] = 100 * ((replayTick/replaySim)/(e2eHost/e2eSim) - 1)
	return withUnits(perLayer, v)
}
