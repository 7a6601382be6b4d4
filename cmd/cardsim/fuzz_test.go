package main

import (
	"math"
	"strings"
	"testing"

	"card/internal/sweep"
)

// FuzzCardsimPlan feeds parsePlan arbitrary argument lists (the input,
// split on whitespace). parsePlan simulates nothing, so any input must
// come back at once as an error or as a plan whose every number is finite
// and under its ceiling, with configs that their owners accept.
func FuzzCardsimPlan(f *testing.F) {
	for _, args := range []string{
		// The hostile-input probes the plan refuses.
		"-preset citywide-rwp-1k -horizon 1e308",
		"-preset citywide-rwp-1k -qps 1e12 -horizon 1",
		"-preset citywide-rwp-1k -sweep NoC=2 -seeds 5 -horizon 1e9",
		"-preset citywide-rwp-1k -queries -5",
		"-preset citywide-rwp-1k -zipf -0.5",
		"-preset citywide-rwp-1k -qps -3",
		"-preset citywide-rwp-1k -horizon -2",
		"-preset citywide-rwp-1k -loss -1",
		"-preset citywide-rwp-1k -churn 1e-9,1e-9",
		"-preset citywide-rwp-1k -churn -5,-5",
		"-preset citywide-rwp-1k -sweep VP=0.0000001 -horizon 30",
		"-trace no-such-file.tr -tx nan",
		"-trace t.tr -tx 1e308 -rangespread 0.9",
		"-exp fig4 -scale -inf",
		"-exp table1 -seeds 0",
		// The README and usage examples.
		"-preset citywide-rwp-1k",
		"-preset sparse-rescue -queries 1000 -horizon 30",
		"-preset citywide-rwp-1k -churn 60,15",
		"-preset citywide-rwp-1k -loss 0.1 -rangespread 0.5",
		"-preset citywide-rwp-1k -qps 200 -zipf 1.1",
		"-trace movements.tcl -tx 100 -horizon 60",
		"-preset citywide-rwp-1k -sweep NoC=2..8..2;r=8..14..2",
		"-preset churn-2k -sweep Method=EM,PM2;NoC=2,4 -seeds 5 -format csv",
		"-sweep NoC=1..4 -scheme rendezvous",
		"-preset metro-rwp-1m -qps 50",
		"-exp all -format md", "-list", "-presets",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, in string) {
		args := strings.Fields(in)
		pl, err := parsePlan(args)
		if err != nil || pl.list || pl.presets {
			return
		}
		if pl.preset.Name == "" {
			if o := pl.opts; len(pl.exps) == 0 || o.Seeds < 1 || o.Seeds > maxSeeds || !(o.Scale > 0 && o.Scale <= 1) {
				t.Fatalf("%q: experiment plan out of bounds: %d experiments, %+v", args, len(pl.exps), o)
			}
			return
		}
		if notFinite(pl.horizon) || pl.horizon < 0 || pl.queries < 0 || pl.queries > maxQueries {
			t.Fatalf("%q: horizon %g or queries %d out of bounds", args, pl.horizon, pl.queries)
		}
		if nc := pl.preset.Net; nc.Validate() != nil {
			t.Fatalf("%q: plan carries a network config its owner refuses: %v", args, nc.Validate())
		}
		if g := pl.grid; g != nil {
			rounds := 0.0
			for i := 0; i < g.Points(); i++ {
				c, err := g.Config(g.Point(i))
				if err == nil {
					err = sweep.EngineRunner{Horizon: pl.horizon, Queries: pl.queries}.Check(&c)
				}
				if err != nil {
					t.Fatalf("%q: plan carries a sweep point its owner refuses: %v", args, err)
				}
				rounds += float64(g.Seeds) * math.Floor(pl.horizon/c.Proto.ValidatePeriod)
			}
			if rounds > maxSweepRounds {
				t.Fatalf("%q: sweep of %g rounds passed the ceiling", args, rounds)
			}
			return
		}
		if steps := math.Ceil(pl.horizon / advanceStep); steps > maxTicks {
			t.Fatalf("%q: %g advance steps passed the ceiling", args, steps)
		}
		if tr := pl.traffic; tr.QPS != 0 {
			if err := tr.Validate(); err != nil || notFinite(tr.QPS*tr.Duration) {
				t.Fatalf("%q: plan carries a traffic config its owner refuses: %+v: %v", args, tr, err)
			}
		}
	})
}
