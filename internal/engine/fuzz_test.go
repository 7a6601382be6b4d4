package engine

import (
	"math"
	"testing"
	"time"

	proto "card/internal/card"
)

// FuzzEngineConfig builds engines from arbitrary network floats and
// maintenance periods at N <= 64. New must return an error, or an engine
// whose Advance(1) returns: a config that New accepts may not hang the
// clock (a NaN period did), nor be silently read as something else
// (negative churn and partition times read as "off").
func FuzzEngineConfig(f *testing.F) {
	type seed struct {
		nodes, mobility                uint8
		width, height, tx              float64
		minSpeed, maxSpeed, pause      float64
		churnUp, churnDown             float64
		spread, loss, period, duration float64
		validatePeriod                 float64
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []seed{
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: 2},
		{nodes: 64, mobility: 1, width: 500, height: 500, tx: 100, maxSpeed: 19, validatePeriod: 0.5},
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: nan},
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: inf},
		{nodes: 50, width: 710, height: 710, tx: 50, validatePeriod: 1e-9},
		{nodes: 50, width: 710, height: 710, tx: 50, churnUp: -5, churnDown: -5, validatePeriod: 2},
		{nodes: 50, width: 710, height: 710, tx: 50, churnUp: 1e-9, churnDown: 1e-9, validatePeriod: 2},
		{nodes: 50, width: 710, height: 710, tx: 50, period: -3, validatePeriod: 2},
		{nodes: 50, width: 710, height: 710, tx: 50, period: 10, duration: 0.1, validatePeriod: 2},
		{nodes: 40, mobility: 2, width: 300, height: 300, tx: 60, spread: 0.9, loss: 0.999999, validatePeriod: 1},
		{nodes: 2, width: 1e6, height: 1e6, tx: 1, validatePeriod: 2},
		{nodes: 1, width: 710, height: 710, tx: 50, validatePeriod: 2},
		{nodes: 30, width: 710, height: 710, tx: 1e308, spread: 0.9, validatePeriod: 2},
	} {
		f.Add(s.nodes, s.mobility, s.width, s.height, s.tx, s.minSpeed, s.maxSpeed, s.pause,
			s.churnUp, s.churnDown, s.spread, s.loss, s.period, s.duration, s.validatePeriod)
	}
	f.Fuzz(func(t *testing.T, nodes, mobility uint8, width, height, tx, minSpeed, maxSpeed, pause,
		churnUp, churnDown, spread, loss, period, duration, validatePeriod float64) {
		nc := NetworkConfig{
			Nodes: int(nodes % 65), Mobility: MobilityKind(mobility % uint8(TraceReplay)),
			Width: width, Height: height, TxRange: tx,
			MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause,
			ChurnMeanUp: churnUp, ChurnMeanDown: churnDown,
			RangeSpread: spread, Loss: loss,
			PartitionPeriod: period, PartitionDuration: duration,
			Seed: 1,
		}
		e, err := New(nc, proto.Config{R: 2, MaxContactDist: 5, NoC: 3, ValidatePeriod: validatePeriod})
		if err != nil {
			return
		}
		if !advancesWithin(e, 1, 10*time.Second) {
			t.Fatalf("Advance(1) did not return within 10 s: %+v, ValidatePeriod %v", nc, validatePeriod)
		}
	})
}
