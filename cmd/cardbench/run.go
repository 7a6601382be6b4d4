package main

import (
	"fmt"
	"runtime"
	"time"

	"card/internal/engine"
	"card/internal/manet"
	"card/internal/workload"
	"card/internal/xrand"
)

// setupTimes is the host time of one set-up, split by step.
type setupTimes struct {
	New, Select, Warm, Total float64 // seconds
}

// setUp builds an engine, selects contacts and advances to the warm-up
// time one maintenance period at a time — step 0 of a run.
func setUp(p engine.Preset, warmup float64) (*engine.Engine, setupTimes, error) {
	t0 := time.Now()
	e, err := engine.New(p.Net, p.Protocol)
	if err != nil {
		return nil, setupTimes{}, err
	}
	t1 := time.Now()
	e.SelectContacts()
	t2 := time.Now()
	for e.Now() < warmup {
		e.Advance(e.Config().ValidatePeriod)
	}
	t3 := time.Now()
	return e, setupTimes{
		New:    t1.Sub(t0).Seconds(),
		Select: t2.Sub(t1).Seconds(),
		Warm:   t3.Sub(t2).Seconds(),
		Total:  t3.Sub(t0).Seconds(),
	}, nil
}

// timedDriver is the workload.Driver seam: the engine with a clock read
// before and after each Advance. Host time between Advance calls is the
// tick's query phase.
type timedDriver struct {
	*engine.Engine
	refresh, round []float64 // ms per Advance, by whether a round fired
	gaps           []float64 // ms between Advance calls
	roundNodes     []float64 // nodes the fired rounds processed
	advance        time.Duration
	last           time.Time
}

func (d *timedDriver) Advance(dt float64) {
	rounds := d.Rounds()
	t0 := time.Now()
	d.Engine.Advance(dt)
	t1 := time.Now()
	if !d.last.IsZero() {
		d.gaps = append(d.gaps, ms(t0.Sub(d.last)))
	}
	d.last = t1
	d.advance += t1.Sub(t0)
	if d.Rounds() > rounds {
		d.round = append(d.round, ms(t1.Sub(t0)))
		d.roundNodes = append(d.roundNodes, float64(d.LastRoundNodes()))
	} else {
		d.refresh = append(d.refresh, ms(t1.Sub(t0)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// memDelta is what the Go runtime did over a phase.
type memDelta struct {
	AllocBytes, Mallocs uint64
	GCCycles            uint32
	GCPauseNS           uint64
	HeapSys             uint64
}

// phaseRun is one untraced workload.Run call with its measurements.
type phaseRun struct {
	Procs   int
	SimS    float64
	HostS   float64
	Drv     *timedDriver
	Report  *workload.Report
	Msgs    manet.Counters // recorder delta over the phase
	Mem     memDelta
	Traffic workload.Config
}

// runPhase drives e through one workload.Run call of cfg at the given
// GOMAXPROCS, timing every Advance from outside.
func runPhase(e *engine.Engine, cfg workload.Config, procs int) (*phaseRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg.Tick = tick
	cfg.KeepOutcomes = true
	runtime.GC() // every window starts from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := e.Network().Totals()
	ph := &phaseRun{Procs: procs, SimS: cfg.Duration, Drv: &timedDriver{Engine: e}}
	t0 := time.Now()
	rep, err := workload.Run(ph.Drv, cfg)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	ph.HostS = end.Sub(t0).Seconds()
	ph.Drv.gaps = append(ph.Drv.gaps, ms(end.Sub(ph.Drv.last))) // the last tick's query phase
	ph.Report = rep
	ph.Traffic = rep.Config
	ph.Msgs = e.Network().Totals().DiffSince(before)
	ph.Mem = memDelta{
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		GCCycles:   m1.NumGC - m0.NumGC,
		GCPauseNS:  m1.PauseTotalNs - m0.PauseTotalNs,
		HeapSys:    m1.HeapSys,
	}
	return ph, nil
}

// Traffic seeds: each phase offers its own stream, derived from the run
// seed; every arm of a workload sees the same stream in the same phase.
const (
	phaseE2E = iota
	phasePar
	phaseReplay
)

func trafficSeed(seed uint64, phase int) uint64 {
	return xrand.New(seed).StreamSeed(0xbe7c4, uint64(phase))
}

// armRun is one discovery scheme's engine taken through every phase.
type armRun struct {
	Scheme    string
	Net       engine.NetworkConfig
	Eng       *engine.Engine
	Setups    []setupTimes
	E2E, Par  *phaseRun
	Replay    *replayRun
	Probe     layerProbe
	HeapLive  uint64  // bytes live after a GC at the end of the e2e phase
	Reach     float64 // mean sampled reachability at the end of the e2e phase
	ReachN    int
	Digest    uint64 // state after the e2e phase
	Checks    []check
	BadOutput int
	PhaseLog  []phaseInfo
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newCheck(name string, err error) check {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	return c
}

func (a *armRun) check(name string, err error) {
	a.Checks = append(a.Checks, newCheck(a.Scheme+": "+name, err))
}

// options are the flags every phase of a run reads.
type options struct {
	Seed    uint64
	Seconds float64
	Trace   int
	Tiny    bool
	NProc   int      // GOMAXPROCS of the par phase
	Spans   *spanLog // nil unless the replay's spans are to be written out
}

// runArm takes one arm through set-up and the planned phases.
func runArm(w workloadDef, scheme string, opt options) (*armRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // set-up is timed serial too
	seed, pl := opt.Seed, w.planFor(opt.Seconds, opt.Trace, opt.Tiny)
	p, err := w.world(seed, opt.Tiny)
	if err != nil {
		return nil, err
	}
	a := &armRun{Scheme: scheme, Net: p.Net}
	var digests []uint64
	for i := 0; i < pl.Setups; i++ {
		a.Eng = nil
		runtime.GC() // the previous set-up's engine is garbage, not ballast
		e, st, err := setUp(p, pl.Warmup)
		if err != nil {
			return nil, err
		}
		a.Eng = e
		a.Setups = append(a.Setups, st)
		digests = append(digests, stateDigest(e, nil))
	}
	a.logPhase("setup", 1, pl.Warmup, sumSetups(a.Setups))
	var err0 error
	for _, d := range digests[1:] {
		if d != digests[0] {
			err0 = fmt.Errorf("set-up digests differ: %x", digests)
		}
	}
	a.check("repeated set-ups from one seed agree", err0)

	traffic := w.Traffic
	traffic.Scheme = scheme

	traffic.Duration, traffic.Seed = pl.E2E, trafficSeed(seed, phaseE2E)
	if a.E2E, err = runPhase(a.Eng, traffic, 1); err != nil {
		return nil, err
	}
	a.logPhase("e2e", 1, pl.E2E, a.E2E.HostS)
	a.finishE2E(seed, pl.ReachNodes)

	if pl.Par > 0 {
		traffic.Duration, traffic.Seed = pl.Par, trafficSeed(seed, phasePar)
		if a.Par, err = runPhase(a.Eng, traffic, opt.NProc); err != nil {
			return nil, err
		}
		a.logPhase("par", opt.NProc, pl.Par, a.Par.HostS)
	}
	if pl.Replay > 0 {
		traffic.Duration, traffic.Seed = pl.Replay, trafficSeed(seed, phaseReplay)
		if a.Replay, err = runReplay(a.Eng, p, traffic, opt.Spans); err != nil {
			return nil, err
		}
		a.logPhase("replay", 1, pl.Replay, a.Replay.HostS)
		a.check("shadow mobility positions equal Network.Position on every replay tick", a.Replay.ShadowErr)
		a.BadOutput += badOutcomes(a.Replay.Outcomes)
		a.probeLayers(seed)
	}
	return a, nil
}

func sumSetups(sts []setupTimes) float64 {
	var s float64
	for _, st := range sts {
		s += st.Total
	}
	return s
}

// finishE2E takes the end-of-window readings and runs the output checks
// of the end-to-end phase.
func (a *armRun) finishE2E(seed uint64, reachNodes int) {
	e, ph := a.Eng, a.E2E
	outs := ph.Report.Outcomes

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.HeapLive = m.HeapAlloc

	a.Digest = stateDigest(e, outs)
	a.BadOutput += badOutcomes(outs)
	a.check("tables within NoC, paths run owner to contact", checkTables(e))

	// Retransmissions are charged to Retry, outside QueryResult.Messages,
	// so the per-query sum must equal the Query+Reply delta exactly.
	sum, _ := queryTraffic(outs)
	var err error
	if rec := ph.Msgs.Sum(manet.CatQuery, manet.CatReply); sum != rec {
		err = fmt.Errorf("per-query messages sum to %d, recorder Query+Reply delta is %d", sum, rec)
	}
	a.check("per-query messages equal the recorder's Query+Reply delta", err)

	err = nil
	if len(outs) != ph.Report.Queries {
		err = fmt.Errorf("%d outcomes kept, %d queries reported", len(outs), ph.Report.Queries)
	}
	a.check("every offered query has an outcome", err)

	// Mean reachability over a seed-sampled set of up nodes: the full
	// MeanReachability costs minutes at 100k under the view cache, and a
	// smaller sample does not repeat between seeds.
	rng := xrand.New(seed).Derive(0x4eac4)
	net := e.Network()
	var total float64
	for tries := 0; a.ReachN < reachNodes && tries < 8*reachNodes; tries++ {
		u := engine.NodeID(rng.Intn(e.Nodes()))
		if net.Down(u) {
			continue
		}
		total += e.Reachability(u, e.Config().Depth)
		a.ReachN++
	}
	if a.ReachN > 0 {
		a.Reach = total / float64(a.ReachN)
	}
}

// phaseInfo is the manifest's record of one phase.
type phaseInfo struct {
	Name       string  `json:"name"`
	Arm        string  `json:"arm"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SimS       float64 `json:"sim_s"`
	HostS      float64 `json:"host_s"`
}

func (a *armRun) logPhase(name string, procs int, sim, host float64) {
	a.PhaseLog = append(a.PhaseLog, phaseInfo{Name: name, Arm: a.Scheme, GOMAXPROCS: procs, SimS: sim, HostS: host})
}

// selfCheck runs a tiny world twice in this process and compares the
// digests: the benchmark's own evidence that what it measures repeats.
func selfCheck(seed uint64) error {
	w, err := lookupWorkload("rich-2k") // churn, loss and partitions: the hardest to repeat
	if err != nil {
		return err
	}
	var digests [2]uint64
	for i := range digests {
		p, err := w.world(seed, true)
		if err != nil {
			return err
		}
		e, _, err := setUp(p, 2)
		if err != nil {
			return err
		}
		traffic := w.Traffic
		traffic.Duration, traffic.Seed, traffic.KeepOutcomes = 4, seed, true
		rep, err := e.RunWorkload(traffic)
		if err != nil {
			return err
		}
		digests[i] = stateDigest(e, rep.Outcomes)
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("two runs of one tiny world disagree: %x vs %x", digests[0], digests[1])
	}
	return nil
}
