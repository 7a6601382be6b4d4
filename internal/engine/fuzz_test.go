package engine

import (
	"math"
	"testing"
	"time"

	proto "card/internal/card"
)

// engineSeed is one FuzzEngineConfig input. refused pins what New does
// with it: refuse it, or build an engine that advances one second and
// answers a query batch.
type engineSeed struct {
	nodes, mobility                uint8
	width, height, tx              float64
	minSpeed, maxSpeed, pause      float64
	churnUp, churnDown             float64
	spread, loss, period, duration float64
	validatePeriod                 float64
	viewCacheCap, lossRetries      int8
	dirty                          bool
	refused                        bool
}

// engineSeeds is FuzzEngineConfig's seed corpus; TestEngineConfigSeeds
// pins each entry's outcome.
var engineSeeds = func() []engineSeed {
	nan, inf := math.NaN(), math.Inf(1)
	return []engineSeed{
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: 2},
		{nodes: 64, mobility: 1, width: 500, height: 500, tx: 100, maxSpeed: 19, validatePeriod: 0.5},
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: nan, refused: true},
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: inf, refused: true},
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: 1e-9, refused: true},
		{nodes: 50, width: 710, height: 710, tx: 50, churnUp: -5, churnDown: -5, validatePeriod: 2, refused: true},
		{nodes: 50, width: 710, height: 710, tx: 50, churnUp: 1e-9, churnDown: 1e-9, validatePeriod: 2, refused: true},
		{nodes: 50, width: 710, height: 710, tx: 50, period: -3, validatePeriod: 2, refused: true},
		{nodes: 50, width: 710, height: 710, tx: 50, period: 10, duration: 0.1, validatePeriod: 2},
		{nodes: 40, mobility: 2, width: 300, height: 300, tx: 60, spread: 0.9, loss: 0.999999, validatePeriod: 1},
		{nodes: 2, width: 1e6, height: 1e6, tx: 1, validatePeriod: 2},
		{nodes: 1, width: 710, height: 710, tx: 50, validatePeriod: 2, refused: true},
		{nodes: 30, width: 710, height: 710, tx: 1e308, spread: 0.9, validatePeriod: 2, refused: true},
		// One resident view under dirty maintenance on a moving field:
		// every round evicts what the last one read.
		{nodes: 50, mobility: 1, width: 710, height: 710, tx: 50, maxSpeed: 15, validatePeriod: 0.5,
			viewCacheCap: 1, dirty: true},
		// Loss next to 1. LossRetries 0 reads as the default budget of 3.
		{nodes: 50, width: 710, height: 710, tx: 50, loss: 0.999999, validatePeriod: 0.5},
		// Deaf nodes: a 0.999 range spread on a sparse field leaves some
		// radios reaching nobody.
		{nodes: 40, width: 1000, height: 1000, tx: 50, spread: 0.999, validatePeriod: 0.5},
	}
}()

// newFuzzEngine builds the engine s describes at N <= 64.
func newFuzzEngine(s engineSeed) (*Engine, NetworkConfig, error) {
	nc := NetworkConfig{
		Nodes: int(s.nodes % 65), Mobility: MobilityKind(s.mobility % uint8(TraceReplay)),
		Width: s.width, Height: s.height, TxRange: s.tx,
		MinSpeed: s.minSpeed, MaxSpeed: s.maxSpeed, Pause: s.pause,
		ChurnMeanUp: s.churnUp, ChurnMeanDown: s.churnDown,
		RangeSpread: s.spread, Loss: s.loss, LossRetries: int(s.lossRetries),
		PartitionPeriod: s.period, PartitionDuration: s.duration,
		ViewCacheCap: int(s.viewCacheCap), DirtyMaintenance: s.dirty,
		Seed: 1,
	}
	e, err := New(nc, proto.Config{R: 2, MaxContactDist: 5, NoC: 3, ValidatePeriod: s.validatePeriod})
	return e, nc, err
}

// requireRuns fails t unless e's Advance(1) and a query batch after it
// each return within 10 s.
func requireRuns(t *testing.T, e *Engine, nc NetworkConfig, validatePeriod float64) {
	t.Helper()
	if !advancesWithin(e, 1, 10*time.Second) {
		t.Fatalf("Advance(1) did not return within 10 s: %+v, ValidatePeriod %v", nc, validatePeriod)
	}
	if !returnsWithin(10*time.Second, func() { e.BatchQuery(e.RandomPairs(16, 3)) }) {
		t.Fatalf("BatchQuery did not return within 10 s: %+v, ValidatePeriod %v", nc, validatePeriod)
	}
}

// FuzzEngineConfig builds engines from arbitrary network floats, view
// cache caps, retry budgets and maintenance periods at N <= 64, with and
// without dirty maintenance. New must return an error, or an engine whose
// Advance(1) and a query batch after it return: a config that New accepts
// may not hang the clock (a NaN period did), nor be silently read as
// something else (negative churn and partition times read as "off").
func FuzzEngineConfig(f *testing.F) {
	for _, s := range engineSeeds {
		f.Add(s.nodes, s.mobility, s.width, s.height, s.tx, s.minSpeed, s.maxSpeed, s.pause,
			s.churnUp, s.churnDown, s.spread, s.loss, s.period, s.duration, s.validatePeriod,
			s.viewCacheCap, s.lossRetries, s.dirty)
	}
	f.Fuzz(func(t *testing.T, nodes, mobility uint8, width, height, tx, minSpeed, maxSpeed, pause,
		churnUp, churnDown, spread, loss, period, duration, validatePeriod float64,
		viewCacheCap, lossRetries int8, dirty bool) {
		e, nc, err := newFuzzEngine(engineSeed{
			nodes: nodes, mobility: mobility, width: width, height: height, tx: tx,
			minSpeed: minSpeed, maxSpeed: maxSpeed, pause: pause,
			churnUp: churnUp, churnDown: churnDown,
			spread: spread, loss: loss, period: period, duration: duration,
			validatePeriod: validatePeriod, viewCacheCap: viewCacheCap, lossRetries: lossRetries, dirty: dirty,
		})
		if err != nil {
			return
		}
		requireRuns(t, e, nc, validatePeriod)
	})
}

// TestEngineConfigSeeds pins every seed of the corpus to its outcome: New
// refuses the ones marked refused, and every other one runs.
func TestEngineConfigSeeds(t *testing.T) {
	for i, s := range engineSeeds {
		e, nc, err := newFuzzEngine(s)
		if (err != nil) != s.refused {
			t.Errorf("seed %d: New error %v, want refused=%v: %+v", i, err, s.refused, nc)
			continue
		}
		if err == nil {
			requireRuns(t, e, nc, s.validatePeriod)
		}
	}
}
