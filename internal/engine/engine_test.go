package engine

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	proto "card/internal/card"
	"card/internal/geom"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/xrand"
)

func testNet(nodes int) NetworkConfig {
	return NetworkConfig{Nodes: nodes, Width: 710, Height: 710, TxRange: 50, Seed: 7}
}

func testCfg() proto.Config {
	return proto.Config{R: 3, MaxContactDist: 16, NoC: 5, ValidatePeriod: 2}
}

func newEngine(t testing.TB, nc NetworkConfig, cfg proto.Config) *Engine {
	t.Helper()
	e, err := New(nc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAdvanceNonPositiveIsNoOp(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	e.Advance(0)
	e.Advance(-3)
	nan := 0.0
	e.Advance(nan / nan) // NaN
	if e.Now() != 0 || e.Rounds() != 0 {
		t.Errorf("no-op Advance moved state: now=%v rounds=%d", e.Now(), e.Rounds())
	}
}

// TestAdvanceInfIsNoOp pins that an unbounded step returns at once: it has
// no last maintenance boundary, so walking the rounds up to it would never
// end.
func TestAdvanceInfIsNoOp(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	if !advancesWithin(e, math.Inf(1), 5*time.Second) {
		t.Fatal("Advance(+Inf) did not return within 5 s")
	}
	if e.Now() != 0 || e.Rounds() != 0 {
		t.Errorf("Advance(+Inf) moved state: now=%v rounds=%d", e.Now(), e.Rounds())
	}
}

// advancesWithin reports whether e.Advance(dt) returns within d.
func advancesWithin(e *Engine, dt float64, d time.Duration) bool {
	return returnsWithin(d, func() { e.Advance(dt) })
}

// returnsWithin reports whether fn returns within d. A call that hangs is
// left running in its goroutine, so the caller fails instead of hanging.
func returnsWithin(d time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestBadValidatePeriodIsRefused pins that New refuses a maintenance
// period that is NaN, infinite or under the 1 ms floor. Boundary
// float64(k)·NaN never exceeds the target time, so Advance(1) under a NaN
// period never returned; under 1e-9 s it walked a billion rounds. The
// deadline turns either hang into a failure.
func TestBadValidatePeriodIsRefused(t *testing.T) {
	for _, vp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-9} {
		cfg := testCfg()
		cfg.ValidatePeriod = vp
		e, err := New(testNet(50), cfg)
		if err == nil {
			t.Errorf("ValidatePeriod %v accepted", vp)
			if !advancesWithin(e, 1, 3*time.Second) {
				t.Fatalf("ValidatePeriod %v: Advance(1) did not return within 3 s", vp)
			}
		}
	}
}

func TestAdvanceExactBoundary(t *testing.T) {
	nc := testNet(50)
	nc.Mobility = RandomWaypoint
	e := newEngine(t, nc, testCfg()) // period 2
	e.Advance(2)                     // lands exactly on boundary 1: fires
	if e.Rounds() != 1 || e.Now() != 2 {
		t.Fatalf("after Advance(2): rounds=%d now=%v, want 1, 2", e.Rounds(), e.Now())
	}
	e.Advance(1.5) // now 3.5: no boundary
	if e.Rounds() != 1 {
		t.Fatalf("after Advance(1.5): rounds=%d, want 1", e.Rounds())
	}
	e.Advance(0.5) // lands exactly on boundary 2
	if e.Rounds() != 2 || e.Now() != 4 {
		t.Fatalf("after Advance(0.5): rounds=%d now=%v, want 2, 4", e.Rounds(), e.Now())
	}
}

func TestAdvanceMultiPeriod(t *testing.T) {
	nc := testNet(50)
	nc.Mobility = RandomWaypoint
	e := newEngine(t, nc, testCfg()) // period 2
	e.Advance(7)                     // boundaries 2, 4, 6
	if e.Rounds() != 3 || e.Now() != 7 {
		t.Fatalf("after Advance(7): rounds=%d now=%v, want 3, 7", e.Rounds(), e.Now())
	}
}

// expectedRounds counts the maintenance boundaries k with
// float64(k)*period <= now — the drift-free schedule's ground truth.
func expectedRounds(now, period float64) int64 {
	var k int64
	for float64(k+1)*period <= now {
		k++
	}
	return k
}

// TestAdvanceDriftFree advances with awkward (non-representable) periods
// and step sizes and checks the round counter against the integer-indexed
// schedule after every step: no boundary is ever skipped or double-fired.
// The old int(now/period)+1 recurrence fails this under accumulation.
func TestAdvanceDriftFree(t *testing.T) {
	for _, period := range []float64{0.1, 1.0 / 3.0, 0.7, 2} {
		cfg := testCfg()
		cfg.ValidatePeriod = period
		e := newEngine(t, testNet(30), cfg)
		steps := []float64{period, period / 3, 2 * period, period, 0.9999 * period, period / 7, 5 * period}
		for pass := 0; pass < 30; pass++ {
			dt := steps[pass%len(steps)]
			before := e.Rounds()
			e.Advance(dt)
			want := expectedRounds(e.Now(), period)
			if e.Rounds() != want {
				t.Fatalf("period %v: after step %d (dt=%v, now=%v): rounds=%d, want %d",
					period, pass, dt, e.Now(), e.Rounds(), want)
			}
			if e.Rounds() < before {
				t.Fatalf("round counter went backwards")
			}
		}
	}
}

// mustBatch is BatchQuery for a caller that cannot get an error.
func mustBatch(t testing.TB, e *Engine, scheme string, pairs []Pair) []resource.Result {
	t.Helper()
	res, err := e.BatchQuery(scheme, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBatchQueryMatchesSequential checks the core BatchQuery contract for
// every registered scheme: a batch at GOMAXPROCS 4 gives the results and
// the per-category recorder delta of a serial QueryVia loop on a twin
// engine. The world churns and loses hops, so sources are down, links
// retry and stored routes break. Destinations are distinct: a batch
// registers each destination's resource once, the loop once per call.
// Run with -race to validate the read-only fan-out.
func TestBatchQueryMatchesSequential(t *testing.T) {
	build := func() *Engine {
		nc := churnNet(300)
		nc.Loss, nc.LossRetries = 0.1, 2
		e := newEngine(t, nc, testCfg())
		e.SelectContacts()
		e.Advance(6)
		return e
	}
	rng := xrand.New(5)
	var pairs []Pair
	for dst := NodeID(0); dst < 300; dst += 2 {
		src := NodeID(rng.Intn(300))
		if dst%50 == 0 {
			src = dst // self-held lookups too
		}
		pairs = append(pairs, Pair{src, dst})
	}
	for _, name := range scheme.Names() {
		t.Run(name, func(t *testing.T) {
			a, b := build(), build()
			if a.UpNodes() == a.Nodes() {
				t.Fatal("no node is down; the down-source arm goes untested")
			}
			before := a.Network().Totals()
			restore := runtime.GOMAXPROCS(4)
			batch := mustBatch(t, a, name, pairs)
			runtime.GOMAXPROCS(restore)
			for i, p := range pairs {
				seq, err := b.QueryVia(name, p.Src, p.Dst)
				if err != nil {
					t.Fatal(err)
				}
				if batch[i] != seq {
					t.Fatalf("pair %d (%d -> %d): batch %+v != sequential %+v", i, p.Src, p.Dst, batch[i], seq)
				}
			}
			if da, db := a.Network().Totals().DiffSince(before), b.Network().Totals().DiffSince(before); da != db {
				t.Errorf("recorder delta: batch %v, sequential %v", da, db)
			}
			if tl := Tally(batch); tl.Found == 0 || tl.Found == tl.Queries || tl.Messages == 0 {
				t.Errorf("batch %+v: want some hits, some misses and some traffic", tl)
			}
		})
	}
}

func TestBatchQueryEmpty(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	if got := mustBatch(t, e, "", nil); len(got) != 0 {
		t.Errorf("BatchQuery(nil) = %v", got)
	}
}

func TestRandomPairGuards(t *testing.T) {
	// Two nodes far outside radio range: largest component is a singleton.
	nc := NetworkConfig{Nodes: 2, Width: 10000, Height: 10000, TxRange: 1, Seed: 3}
	e := newEngine(t, nc, proto.Config{R: 2, MaxContactDist: 6})
	p, ok := e.RandomPair(1)
	if ok {
		t.Error("degenerate component reported ok")
	}
	if p.Src != p.Dst {
		t.Errorf("degenerate pair = %+v, want src == dst", p)
	}
	if int(p.Src) < 0 || int(p.Src) >= 2 {
		t.Errorf("pair out of range: %+v", p)
	}
	if pairs := e.RandomPairs(10, 1); len(pairs) != 0 {
		t.Errorf("RandomPairs on degenerate component = %v, want empty", pairs)
	}
}

func TestRandomPairDistinct(t *testing.T) {
	e := newEngine(t, testNet(100), testCfg())
	for seed := uint64(0); seed < 50; seed++ {
		p, ok := e.RandomPair(seed)
		if !ok {
			t.Fatalf("seed %d: connected component reported degenerate", seed)
		}
		if p.Src == p.Dst {
			t.Fatalf("seed %d: src == dst == %d", seed, p.Src)
		}
	}
}

func TestPresetsRunnable(t *testing.T) {
	if len(Presets()) < 4 {
		t.Fatalf("expected >= 4 built-in presets, have %d", len(Presets()))
	}
	if _, err := LookupPreset("no-such-preset"); err == nil {
		t.Error("unknown preset lookup succeeded")
	}
	// Build each preset at a reduced node count so the test stays fast;
	// the full sizes are exercised by the scaling benchmarks.
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			nc := p.Net
			nc.Nodes = 120
			nc.Width, nc.Height = nc.Width/4, nc.Height/4
			e, err := New(nc, p.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			e.SelectContacts()
			e.Advance(1)
			if pairs := e.RandomPairs(5, 1); len(pairs) > 0 {
				mustBatch(t, e, "", pairs)
			}
		})
	}
}

// TestNetworkConfigRejectsNonFinite pins that NaN and ±Inf are configuration
// errors wherever a range check guards a float: NaN compares false against
// every bound (so `x <= 0` and `x >= 1` both let it through) and +Inf is
// positive, and either would otherwise build a link-less network or be
// dropped in favour of a default without a word.
func TestNetworkConfigRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*NetworkConfig, float64)
	}{
		{"Width", func(nc *NetworkConfig, v float64) { nc.Width = v }},
		{"Height", func(nc *NetworkConfig, v float64) { nc.Height = v }},
		{"TxRange", func(nc *NetworkConfig, v float64) { nc.TxRange = v }},
		{"MinSpeed", func(nc *NetworkConfig, v float64) { nc.Mobility, nc.MinSpeed = RandomWaypoint, v }},
		{"MaxSpeed", func(nc *NetworkConfig, v float64) { nc.Mobility, nc.MaxSpeed = RandomWaypoint, v }},
		{"GMMeanSpeed", func(nc *NetworkConfig, v float64) { nc.Mobility, nc.GMMeanSpeed = GaussMarkov, v }},
		{"GMAlpha", func(nc *NetworkConfig, v float64) { nc.Mobility, nc.GMAlpha = GaussMarkov, v }},
		{"GMSpeedSigma", func(nc *NetworkConfig, v float64) { nc.Mobility, nc.GMSpeedSigma = GaussMarkov, v }},
		{"GroupRadius", func(nc *NetworkConfig, v float64) { nc.Mobility, nc.GroupRadius = GroupMobility, v }},
		{"MemberSpeed", func(nc *NetworkConfig, v float64) { nc.Mobility, nc.MemberSpeed = GroupMobility, v }},
		{"ChurnMeanUp", func(nc *NetworkConfig, v float64) { nc.ChurnMeanUp, nc.ChurnMeanDown = v, 5 }},
		{"ChurnMeanDown", func(nc *NetworkConfig, v float64) { nc.ChurnMeanUp, nc.ChurnMeanDown = 5, v }},
		{"ChurnBoth", func(nc *NetworkConfig, v float64) { nc.ChurnMeanUp, nc.ChurnMeanDown = v, v }},
		{"RangeSpread", func(nc *NetworkConfig, v float64) { nc.RangeSpread = v }},
		{"Loss", func(nc *NetworkConfig, v float64) { nc.Loss = v }},
		{"PartitionPeriod", func(nc *NetworkConfig, v float64) { nc.PartitionPeriod, nc.PartitionDuration = v, 2 }},
		{"PartitionDuration", func(nc *NetworkConfig, v float64) { nc.PartitionPeriod, nc.PartitionDuration = 10, v }},
		{"PartitionBoth", func(nc *NetworkConfig, v float64) { nc.PartitionPeriod, nc.PartitionDuration = v, v }},
		// Two finite values whose widest node range overflows to +Inf.
		{"TxRangeSpread", func(nc *NetworkConfig, _ float64) { nc.TxRange, nc.RangeSpread = 1e308, 0.9 }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			nc := testNet(60)
			f.set(&nc, v)
			if _, err := New(nc, testCfg()); err == nil {
				t.Errorf("%s = %v: non-finite config accepted", f.name, v)
			}
		}
	}
	// Negative churn means and partition times used to read as "off", a
	// negative GMAlpha as α = 0, and a negative mobility parameter as its
	// default.
	for _, c := range []struct {
		name string
		set  func(*NetworkConfig)
	}{
		{"ChurnBoth", func(nc *NetworkConfig) { nc.ChurnMeanUp, nc.ChurnMeanDown = -5, -5 }},
		{"ChurnMeanUp", func(nc *NetworkConfig) { nc.ChurnMeanUp, nc.ChurnMeanDown = -5, 5 }},
		{"PartitionPeriod", func(nc *NetworkConfig) { nc.PartitionPeriod = -3 }},
		{"PartitionDuration", func(nc *NetworkConfig) { nc.PartitionDuration = -3 }},
		{"PartitionBoth", func(nc *NetworkConfig) { nc.PartitionPeriod, nc.PartitionDuration = -3, -1 }},
		{"GMAlpha", func(nc *NetworkConfig) { nc.Mobility, nc.GMAlpha = GaussMarkov, -0.5 }},
		{"GMSpeedSigma", func(nc *NetworkConfig) { nc.Mobility, nc.GMSpeedSigma = GaussMarkov, -1 }},
		{"GMMeanSpeed", func(nc *NetworkConfig) { nc.Mobility, nc.GMMeanSpeed = GaussMarkov, -1 }},
		{"GroupRadius", func(nc *NetworkConfig) { nc.Mobility, nc.GroupRadius = GroupMobility, -1 }},
		{"MemberSpeed", func(nc *NetworkConfig) { nc.Mobility, nc.MemberSpeed = GroupMobility, -1 }},
		{"Groups", func(nc *NetworkConfig) { nc.Mobility, nc.Groups = GroupMobility, -1 }},
	} {
		nc := testNet(60)
		c.set(&nc)
		if _, err := New(nc, testCfg()); err == nil {
			t.Errorf("negative %s accepted: %+v", c.name, nc)
		}
	}
}

// TestValidateLeavesTraceShapeToNew pins that a trace config may be checked
// before its trace is read: Nodes and the area come from the trace, so
// Validate accepts them zero there and nowhere else.
func TestValidateLeavesTraceShapeToNew(t *testing.T) {
	trace := NetworkConfig{Mobility: TraceReplay, TracePath: "t.tr", TxRange: 100}
	if err := trace.Validate(); err != nil {
		t.Errorf("trace config without its shape refused: %v", err)
	}
	for _, nc := range []NetworkConfig{
		{Mobility: Static, TxRange: 100},
		{Mobility: TraceReplay, TracePath: "t.tr", Nodes: 1, TxRange: 100},
		{Mobility: TraceReplay, TracePath: "t.tr", Width: 100, TxRange: 100},
	} {
		if err := nc.Validate(); err == nil {
			t.Errorf("config %+v accepted", nc)
		}
	}
}

// TestNewValidatesProtocolBeforeBuilding pins the order of engine.New: a
// bad card.Config is reported before anything sized by Nodes exists. On a
// million-node config that is the difference between an instant error and
// paying the whole mobility and topology set-up first; the allocation
// budget is what shows that no position slab, grid or adjacency was made.
func TestNewValidatesProtocolBeforeBuilding(t *testing.T) {
	p, err := LookupPreset("metro-rwp-1m")
	if err != nil {
		t.Fatal(err)
	}
	nc := p.Net
	nc.Seed = 1
	bad := p.Protocol
	bad.MaxContactDist = bad.R // r must exceed R
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(nc, bad); err == nil {
			t.Fatal("invalid card.Config accepted")
		}
	})
	// The error value and its message; 10⁶ positions alone would be one
	// allocation of 16 MB, and the set-up as a whole runs to millions.
	if allocs > 8 {
		t.Errorf("rejecting a bad card.Config on a 1M-node network cost %.0f allocations; validation runs after the build", allocs)
	}
}

// TestNoC0EngineSendsNoContactTraffic pins NoC 0 as the no-contacts
// baseline on a moving, churning field, under full and dirty rounds: no
// CSQ, backtrack, validation or recovery hop is ever sent and every table
// stays empty through Advance. Config.Validate used to read NoC 0 as 5.
func TestNoC0EngineSendsNoContactTraffic(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		nc := testNet(120)
		nc.Mobility, nc.MaxSpeed = RandomWaypoint, 15
		nc.ChurnMeanUp, nc.ChurnMeanDown = 6, 2
		nc.DirtyMaintenance = dirty
		cfg := testCfg()
		cfg.NoC = 0
		e := newEngine(t, nc, cfg)
		if e.Config().NoC != 0 {
			t.Fatalf("dirty=%v: NoC 0 read as %d", dirty, e.Config().NoC)
		}
		e.SelectContacts()
		e.Advance(12)
		if e.Rounds() == 0 {
			t.Fatalf("dirty=%v: no maintenance round ran", dirty)
		}
		if m := e.Messages(); m.Selection != 0 || m.Backtrack != 0 || m.Validation != 0 || m.Recovery != 0 {
			t.Errorf("dirty=%v: NoC 0 engine sent contact traffic: %+v", dirty, m)
		}
		for u := 0; u < e.Nodes(); u++ {
			if n := e.Protocol().Table(NodeID(u)).Len(); n != 0 {
				t.Fatalf("dirty=%v: node %d holds %d contacts at NoC 0", dirty, u, n)
			}
		}
	}
}

// TestGMAlphaZeroIsBrownian pins that GMAlpha 0 reaches the Gauss–Markov
// model as α = 0 (memoryless motion): it used to be replaced by the
// default 0.75, so the two runs were identical.
func TestGMAlphaZeroIsBrownian(t *testing.T) {
	positions := func(alpha float64) []geom.Point {
		nc := testNet(40)
		nc.Mobility, nc.GMAlpha, nc.GMSpeedSigma = GaussMarkov, alpha, 2
		e := newEngine(t, nc, testCfg())
		e.Advance(6)
		out := make([]geom.Point, e.Nodes())
		for u := range out {
			out[u] = e.Network().Position(NodeID(u))
		}
		return out
	}
	if reflect.DeepEqual(positions(0), positions(0.75)) {
		t.Error("GMAlpha 0 moves nodes exactly as GMAlpha 0.75 does")
	}
}
