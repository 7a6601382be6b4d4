package sweep

import (
	"math"
	"testing"
)

// FuzzParseSpec pins the spec grammar's safety net: ParseSpec must not
// panic on any input, and every value it returns without error must be
// finite and pass its axis's own range check — NaN compares false against
// every bound, so before the finite check "Loss=nan" ran a cell labelled
// "Loss NaN" whose axis the engine runner then ignored.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		// The specs of sweep_test.go.
		"NoC=1..4;r=8..16..4;Method=EM,PM2",
		"R=2,3; r=8..10; depth=1..2; vp=0.5,1",
		"", "NoC", "bogus=1..3", "NoC=3..1", "NoC=1..5..0", "NoC=1.5,2", "Method=EM,QM",
		"D=0..2", "VP=0,1", "NoC=1..3;noc=2", "NoC=x", "r=8..16..2..1",
		// cmd/cardsim's usage comment and the ParseSpec examples.
		"NoC=2..8..2;r=8..14..2", "Method=EM,PM2;NoC=2,4", "NoC=1..4",
		"Scheme=card,rendezvous;NoC=2,4", "NoC=1..10;r=6..20", "r=8..16..2;Method=EM,PM2",
		"R=2,3;NoC=2..8..2;D=1..3", "Loss=0,0.05,0.1;RangeSpread=0,0.25,0.5",
		// Non-finite values and bounds.
		"Loss=nan;NoC=2", "RangeSpread=nan", "ValidatePeriod=inf", "Loss=0..0.5..inf", "Loss=0..nan",
		// Integer axes past int64: once wrapped negative before their check.
		"Scheme=1e300", "NoC=1e300", "r=1e300", "D=1e300", "R=1e300",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		axes, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, a := range axes {
			var def *axisDef
			for i := range axisDefs {
				if axisDefs[i].canon == a.Name {
					def = &axisDefs[i]
				}
			}
			if def == nil {
				t.Fatalf("spec %q: axis %q is not a canonical name", spec, a.Name)
			}
			for _, v := range a.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("spec %q: axis %s accepted non-finite value %v", spec, a.Name, v)
				}
				if err := def.check(v); err != nil {
					t.Fatalf("spec %q: axis %s returned a value its own check rejects: %v", spec, a.Name, err)
				}
			}
		}
		// Every accepted point applies and renders without panicking.
		g := &Grid{Axes: axes}
		if g.Validate() != nil {
			return
		}
		for i := 0; i < min(g.Points(), 64); i++ {
			pt := g.Point(i)
			if _, err := g.Config(pt); err != nil {
				t.Fatalf("spec %q: point %d: %v", spec, i, err)
			}
			for j, a := range g.Axes {
				renderAxisValue(a, pt[j])
			}
		}
	})
}
