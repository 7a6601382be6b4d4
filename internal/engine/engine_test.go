package engine

import (
	"math"
	"testing"
	"time"

	proto "card/internal/card"
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

// TestBatchQueryMatchesSequential checks the core BatchQuery contract:
// same results and same message accounting as the serial loop. Run with
// -race to validate the read-only fan-out.
func TestBatchQueryMatchesSequential(t *testing.T) {
	build := func() *Engine {
		nc := testNet(300)
		e := newEngine(t, nc, testCfg())
		e.SelectContacts()
		return e
	}
	a, b := build(), build()
	pairs := a.RandomPairs(200, 5)
	batch := a.BatchQuery(pairs)
	seq := make([]proto.QueryResult, len(pairs))
	for i, p := range pairs {
		seq[i] = b.Query(p.Src, p.Dst)
	}
	for i := range batch {
		if batch[i] != seq[i] {
			t.Fatalf("pair %d: batch %+v != sequential %+v", i, batch[i], seq[i])
		}
	}
	if a.Messages() != b.Messages() {
		t.Errorf("accounting diverges: batch %+v, sequential %+v", a.Messages(), b.Messages())
	}
	// And a second batch on the same engine reproduces itself (scratch
	// state fully resets between queries).
	if again := a.BatchQuery(pairs); len(again) == len(batch) {
		for i := range again {
			if again[i] != batch[i] {
				t.Fatalf("re-run pair %d: %+v != %+v", i, again[i], batch[i])
			}
		}
	}
}

// TestBatchQueryPoolAcrossAdvance pins the engine-held Queriers: their
// walk memos live from one BatchQuery to the next, so a batch after
// refreshes and rounds must still equal fresh Queriers on a twin engine.
func TestBatchQueryPoolAcrossAdvance(t *testing.T) {
	build := func() *Engine {
		nc := testNet(300)
		nc.Mobility, nc.MinSpeed, nc.MaxSpeed = RandomWaypoint, 5, 15
		cfg := testCfg()
		cfg.Depth = 3
		e := newEngine(t, nc, cfg)
		e.SelectContacts()
		return e
	}
	a, b := build(), build()
	pairs := a.RandomPairs(200, 5)
	for step := 0; step < 4; step++ {
		batch := a.BatchQuery(pairs)
		q := b.Protocol().NewQuerier()
		for i, p := range pairs {
			if want := q.Query(p.Src, p.Dst); batch[i] != want {
				t.Fatalf("step %d pair %d: pooled %+v != fresh %+v", step, i, batch[i], want)
			}
		}
		q.Flush()
		if a.Messages() != b.Messages() {
			t.Fatalf("step %d: accounting diverges: pooled %+v, fresh %+v", step, a.Messages(), b.Messages())
		}
		a.Advance(1.5) // a refresh every step, a round on some
		b.Advance(1.5)
	}
}

func TestBatchQueryEmpty(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	if got := e.BatchQuery(nil); len(got) != 0 {
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
				e.BatchQuery(pairs)
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
	// Negative churn means and partition times used to read as "off", and
	// a negative GMAlpha as α = 0.
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
