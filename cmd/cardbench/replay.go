package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/workload"
	"card/internal/xrand"
)

// The replay phase is the traced run. It plays each tick as the sequence
// of public layer calls engine.Advance and workload.Run make, in their
// order, with one span around each:
//
//	Network.RefreshAt → Protocol.ExpireNodes/ResetNode → Warmer.WarmAll →
//	(round ticks) Protocol.MaintainAll → scheme.Maintain →
//	Worker.Discover per query → Worker.Flush
//
// Serial MaintainAll is bit-identical to the engine's sharded round by the
// repo's standing contract, and views are pure functions of the snapshot,
// so warming before the round instead of inside it changes no state: the
// replay is the engine's tick taken apart, not a model of it. The
// replay ≡ Advance test pins that with state digests.
//
// Under DirtyMaintenance the restricted round list is private to the
// engine, so there the tick keeps engine.Advance whole, as one span, and
// manet.refresh is timed on a second engine's network refreshed to the
// same times.
//
// The replay drives the layers directly and leaves the engine's event
// queue behind, so it is the last thing done with an engine.

// replayRun is the outcome of one replay phase.
type replayRun struct {
	SimS, HostS float64
	// TickHostS is the host time of the ticks themselves: HostS minus the
	// shadow-mobility and reference-network spans, which the engine's
	// tick does not contain.
	TickHostS float64
	Ticks     int
	Rounds    int
	Outcomes  []workload.Outcome
	ShadowErr error
	Dirty     bool

	// Per-tick samples, in ms unless named otherwise.
	Refresh, Step, Warm, Maintain, Expire []float64
	SchemeMaintain                        []float64
	// RoundAdvance is the Advance half of each round tick — the replayed
	// refresh, expiry, warm and round, or the engine.advance span under
	// DirtyMaintenance; RoundRefresh is the manet.refresh share of it.
	RoundAdvance, RoundRefresh []float64
	DiscoverUS, FlushUS        []float64
	Moved, Changed, Flips      []float64 // work counters per refresh
	FullRebuilds               int
	SetupMS                    float64
	DiscoverAllocB             uint64
	Msgs                       manet.Counters // recorder delta over the phase
	// Protocol statistics deltas over the phase.
	Lost, Recoveries, BoundDrops, Expired int64
}

// arrivals regenerates workload.Run's offered stream: stream 0 of the
// traffic seed places holders, stream 1 draws (gap, source, resource) per
// query, three draws each.
type arrivals struct {
	rng  *xrand.Rand
	zipf *xrand.Zipf
	qps  float64
	n    int
	next float64
}

func newArrivals(cfg workload.Config, n int, start float64) (*arrivals, *resource.Directory) {
	root := xrand.New(cfg.Seed)
	place := root.Derive(0)
	a := &arrivals{rng: root.Derive(1), zipf: xrand.NewZipf(cfg.Resources, cfg.ZipfS), qps: cfg.QPS, n: n}
	dir := resource.NewDirectory(n)
	for id := 0; id < cfg.Resources; id++ {
		dir.PlaceReplicas(resource.ID(id), cfg.Replicas, place)
	}
	a.next = start + a.rng.ExpFloat64()/a.qps
	return a, dir
}

// until appends the arrivals up to and including tickEnd to batch.
func (a *arrivals) until(tickEnd float64, batch []workload.Query) []workload.Query {
	for a.next <= tickEnd {
		batch = append(batch, workload.Query{
			T:        a.next,
			Src:      workload.NodeID(a.rng.Intn(a.n)),
			Resource: resource.ID(a.zipf.Draw(a.rng)),
		})
		a.next += a.rng.ExpFloat64() / a.qps
	}
	return batch
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// replayer holds what one replay needs between ticks.
type replayer struct {
	eng    *engine.Engine
	net    *manet.Network
	prot   *card.Protocol
	warmer neighborhood.Warmer      // nil when the provider computes on demand
	shadow *mobility.RandomWaypoint // nil when nothing moves
	refNet *manet.Network           // dirty mode: where manet.refresh is timed
	sch    scheme.DiscoveryScheme
	worker scheme.Worker
	vp     float64
	rounds int64         // maintenance boundaries fired so far, as Engine.Rounds counts them
	warmed time.Duration // WarmAll time of the tick in progress
	sp     *spanLog
	out    *replayRun
}

// runReplay replays cfg's traffic on e for cfg.Duration simulated seconds.
func runReplay(e *engine.Engine, p engine.Preset, cfg workload.Config, sp *spanLog) (*replayRun, error) {
	if sp == nil {
		sp = newSpanLog()
	}
	sp.arm, sp.tick = cfg.Scheme, -1
	net, prot := e.Network(), e.Protocol()
	r := &replayer{
		eng: e, net: net, prot: prot, vp: e.Config().ValidatePeriod, rounds: e.Rounds(), sp: sp,
		out: &replayRun{SimS: cfg.Duration, Dirty: p.Net.DirtyMaintenance},
	}
	s0 := e.Stats()
	r.warmer, _ = e.Neighborhood().(neighborhood.Warmer)
	if p.Net.Mobility == engine.RandomWaypoint {
		// The engine's own model is xrand.New(seed).Derive(0) with these
		// parameters; an equal shadow lets mobility be timed by itself.
		m, err := mobility.NewRandomWaypoint(net.N(), net.Area(), mobility.RWPConfig{
			MinSpeed: orDefault(p.Net.MinSpeed, 1), MaxSpeed: orDefault(p.Net.MaxSpeed, 19), Pause: p.Net.Pause,
		}, xrand.New(p.Net.Seed).Derive(0))
		if err != nil {
			return nil, fmt.Errorf("shadow mobility: %w", err)
		}
		m.StepTo(e.Now())
		r.shadow = m
	}
	if r.out.Dirty {
		ref, err := engine.New(p.Net, p.Protocol)
		if err != nil {
			return nil, fmt.Errorf("reference network: %w", err)
		}
		r.refNet = ref.Network()
		r.refNet.RefreshAt(e.Now())
	}

	before := net.Totals()
	start := e.Now()
	t0 := time.Now()
	root := sp.begin("replay", -1)

	arr, dir := newArrivals(cfg, e.Nodes(), start)
	var err error
	if r.sch, err = scheme.New(cfg.Scheme, scheme.Env{Net: net, Prot: prot, Dir: dir, Seed: cfg.Seed}); err != nil {
		return nil, err
	}
	id := sp.begin("scheme.setup", root)
	r.sch.Setup()
	r.out.SetupMS = ms(sp.end(id))
	r.worker = r.sch.Worker()

	var batch []workload.Query
	end := start + cfg.Duration
	for now := start; now < end; {
		tickEnd := now + tick
		if tickEnd > end {
			tickEnd = end
		}
		batch = arr.until(tickEnd, batch[:0])
		r.tick(root, tickEnd, batch)
		now = tickEnd
	}
	sp.end(root)
	r.out.HostS = time.Since(t0).Seconds()
	r.out.Msgs = net.Totals().DiffSince(before)
	s1 := e.Stats()
	r.out.Lost = s1.ContactsLost - s0.ContactsLost
	r.out.Recoveries = s1.Recoveries - s0.Recoveries
	r.out.BoundDrops = s1.BoundDrops - s0.BoundDrops
	r.out.Expired = s1.ContactsExpired - s0.ContactsExpired
	return r.out, nil
}

func orDefault(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

// tick plays one workload tick ending at simulated time t.
func (r *replayer) tick(root int, t float64, batch []workload.Query) {
	sp, out := r.sp, r.out
	sp.tick = out.Ticks
	out.Ticks++
	tickID := sp.begin("tick", root)

	// The Advance half of the tick. advance is its host time; aside is
	// time spent in spans the engine's tick has no counterpart for.
	var advance, aside, refreshed time.Duration
	fired := false
	if out.Dirty {
		rounds := r.eng.Rounds()
		id := sp.begin("engine.advance", tickID)
		r.eng.Advance(t - r.eng.Now())
		advance = sp.end(id)
		fired = r.eng.Rounds() > rounds
		id = sp.begin("manet.refresh", tickID)
		r.refNet.RefreshAt(t)
		refreshed = sp.end(id)
		aside = refreshed
		r.noteRefresh(refreshed, r.refNet)
	} else {
		// engine.Advance: every boundary at or before t fires a refresh
		// and a round at its own time; then the snapshot moves to t.
		t0 := time.Now()
		for float64(r.rounds+1)*r.vp <= t {
			at := float64(r.rounds+1) * r.vp
			d, a := r.refresh(tickID, at)
			refreshed += d
			aside += a
			r.warm(tickID)
			id := sp.begin("card.maintain", tickID)
			r.prot.MaintainAll(at)
			out.Maintain = append(out.Maintain, ms(sp.end(id)))
			r.rounds++
			fired = true
		}
		if t > r.net.Now() {
			d, a := r.refresh(tickID, t)
			refreshed += d
			aside += a
		}
		advance = time.Since(t0) - aside
	}
	if fired {
		out.Rounds++
		out.RoundAdvance = append(out.RoundAdvance, ms(advance))
		out.RoundRefresh = append(out.RoundRefresh, ms(refreshed))
	}

	// The query half: what workload.Run does between Advance calls.
	id := sp.begin("scheme.maintain", tickID)
	r.sch.Maintain(t)
	out.SchemeMaintain = append(out.SchemeMaintain, ms(sp.end(id)))
	r.warm(tickID)
	alloc0 := heapAllocBytes()
	for _, q := range batch {
		if r.net.Down(q.Src) {
			out.Outcomes = append(out.Outcomes, workload.Outcome{Query: q, SrcDown: true, Hops: -1})
			continue
		}
		id := sp.begin("scheme.discover", tickID)
		res := r.worker.Discover(q.Src, q.Resource)
		out.DiscoverUS = append(out.DiscoverUS, us(sp.end(id)))
		out.Outcomes = append(out.Outcomes, workload.Outcome{Query: q, Found: res.Found, Messages: res.Messages, Hops: res.PathHops})
	}
	out.DiscoverAllocB += heapAllocBytes() - alloc0
	id = sp.begin("scheme.flush", tickID)
	r.worker.Flush()
	out.FlushUS = append(out.FlushUS, us(sp.end(id)))

	out.TickHostS += (sp.end(tickID) - aside).Seconds()
	out.Warm = append(out.Warm, ms(r.warmed))
	r.warmed = 0
}

// refresh plays engine.refresh at time t: re-snapshot, then churn expiry.
// It returns the manet.refresh time and, as aside, the time spent stepping
// and checking the shadow mobility model.
func (r *replayer) refresh(parent int, t float64) (refreshed, aside time.Duration) {
	sp, out := r.sp, r.out
	id := sp.begin("manet.refresh", parent)
	r.net.RefreshAt(t)
	refreshed = sp.end(id)
	r.noteRefresh(refreshed, r.net)

	if r.net.HasChurn() {
		id = sp.begin("card.expire", parent)
		r.prot.ExpireNodes(r.net.ChurnedDown())
		for _, v := range r.net.ChurnedUp() {
			r.prot.ResetNode(v)
		}
		out.Expire = append(out.Expire, ms(sp.end(id)))
	}

	if r.shadow != nil {
		t0 := time.Now()
		id = sp.begin("mobility.step", parent)
		moved, pos := r.shadow.StepTo(t)
		out.Step = append(out.Step, ms(sp.end(id)))
		out.Moved = append(out.Moved, float64(len(moved)))
		for u := range pos {
			if pos[u] != r.net.Position(engine.NodeID(u)) && out.ShadowErr == nil {
				out.ShadowErr = fmt.Errorf("t=%g node %d: shadow at %v, network at %v", t, u, pos[u], r.net.Position(engine.NodeID(u)))
			}
		}
		aside = time.Since(t0)
	}
	return refreshed, aside
}

// noteRefresh records a refresh's time, and its work counters as read
// from the refreshed network.
func (r *replayer) noteRefresh(d time.Duration, net *manet.Network) {
	out := r.out
	out.Refresh = append(out.Refresh, ms(d))
	out.Flips = append(out.Flips, float64(len(net.ChurnedDown())+len(net.ChurnedUp())))
	changed, all := net.AdjacencyChanged()
	if all {
		out.FullRebuilds++
		out.Changed = append(out.Changed, float64(net.N()))
	} else {
		out.Changed = append(out.Changed, float64(len(changed)))
	}
}

// warm materializes the views the next reads need, as the engine's round
// and workload.Run's batch fan-out do. On-demand providers have no warm.
func (r *replayer) warm(parent int) {
	if r.warmer == nil {
		return
	}
	id := r.sp.begin("neighborhood.warm", parent)
	r.warmer.WarmAll()
	r.warmed += r.sp.end(id)
}
