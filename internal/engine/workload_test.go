package engine

import (
	"reflect"
	"runtime"
	"testing"

	"card/internal/workload"
)

// workloadTraffic is the traffic shape the equivalence runs use: enough
// arrivals per tick that the fan-out genuinely shards, long enough that
// several maintenance rounds interleave with the stream.
func workloadTraffic() workload.Config {
	return workload.Config{
		QPS: 30, Duration: 8, Tick: 0.5,
		Resources: 32, Replicas: 2, ZipfS: 0.9,
		Window: 64, Seed: 5, KeepOutcomes: true,
	}
}

// runWorkloadTrace drives one sustained-traffic run at width w and
// snapshots everything the equivalence contract
// covers: the full per-query outcome stream, the aggregate report, and the
// engine's recorder totals (which include the maintenance rounds the
// stream interleaves with).
func runWorkloadTrace(t *testing.T, nc NetworkConfig, w width) (*workload.Report, MessageCounts) {
	t.Helper()
	defer runtime.GOMAXPROCS(w.setBuild())
	e := newEngine(t, nc, testCfg())
	e.SelectContacts()
	runtime.GOMAXPROCS(w.run)
	rep, err := e.RunWorkload(workloadTraffic())
	if err != nil {
		t.Fatal(err)
	}
	return rep, e.Messages()
}

// TestWorkloadParallelEquivalence pins the sustained-traffic determinism
// contract: the full per-query result stream, the report aggregates and
// the recorder totals are bit-identical between serial execution at
// GOMAXPROCS 1 and sharded execution at every equivWidths width (CI runs it
// under -race), over a mobile
// scenario and — the adversarial case — over one with node churn, where
// sources and holders flip mid-stream.
func TestWorkloadParallelEquivalence(t *testing.T) {
	mobile := testNet(400)
	mobile.Mobility = RandomWaypoint
	mobile.MinSpeed, mobile.MaxSpeed, mobile.Pause = 1, 15, 3
	scenarios := []struct {
		name string
		nc   NetworkConfig
	}{
		{"mobile", mobile},
		{"churn", churnNet(400)},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			base, baseMsgs := runWorkloadTrace(t, sc.nc, serial)
			if base.Queries == 0 || base.Found == 0 {
				t.Fatalf("degenerate reference run: %+v", base)
			}
			if sc.name == "churn" && base.SrcDown == 0 {
				t.Fatal("churn scenario dropped no sources; not exercising churn")
			}
			for _, w := range equivWidths {
				t.Run(w.name, func(t *testing.T) {
					got, gotMsgs := runWorkloadTrace(t, sc.nc, w)
					if gotMsgs != baseMsgs {
						t.Errorf("recorder totals diverge:\n got  %+v\n want %+v", gotMsgs, baseMsgs)
					}
					if !reflect.DeepEqual(got, base) {
						if len(got.Outcomes) != len(base.Outcomes) {
							t.Fatalf("outcome stream length %d != %d", len(got.Outcomes), len(base.Outcomes))
						}
						for i := range got.Outcomes {
							if got.Outcomes[i] != base.Outcomes[i] {
								t.Fatalf("outcome %d diverges:\n got  %+v\n want %+v",
									i, got.Outcomes[i], base.Outcomes[i])
							}
						}
						t.Fatalf("report aggregates diverge:\n got  %+v\n want %+v", got, base)
					}
				})
			}
		})
	}
}

// TestRunWorkloadAdvancesSchedule pins the interleaving: a sustained run
// moves the engine clock by its duration and fires every maintenance
// boundary on the way, exactly as plain Advance would.
func TestRunWorkloadAdvancesSchedule(t *testing.T) {
	nc := testNet(120)
	nc.Mobility = RandomWaypoint
	e := newEngine(t, nc, testCfg()) // ValidatePeriod 2
	e.SelectContacts()
	rep, err := e.RunWorkload(workload.Config{QPS: 20, Duration: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.Now() != 9 {
		t.Errorf("clock at %g after a 9 s stream", e.Now())
	}
	if e.Rounds() != 4 {
		t.Errorf("fired %d maintenance rounds, want 4 (period 2 over 9 s)", e.Rounds())
	}
	if rep.Queries == 0 {
		t.Error("stream offered no queries")
	}
	if rep.Outcomes != nil {
		t.Error("outcomes kept without KeepOutcomes")
	}
}

// TestRunWorkloadRejectsBadConfig pins error propagation through the
// engine wrapper.
func TestRunWorkloadRejectsBadConfig(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	if _, err := e.RunWorkload(workload.Config{}); err == nil {
		t.Fatal("zero workload config accepted")
	}
}

// TestPresetTrafficShapes sanity-checks the presets that declare a
// sustained-traffic phase: positive rates and durations, catalogue sized,
// and at least one churn preset under load.
func TestPresetTrafficShapes(t *testing.T) {
	withTraffic := 0
	churned := 0
	for _, p := range Presets() {
		tr := p.Traffic
		if tr.QPS == 0 {
			continue
		}
		withTraffic++
		if tr.Duration <= 0 || tr.Resources <= 0 || tr.Replicas <= 0 {
			t.Errorf("preset %s traffic underspecified: %+v", p.Name, tr)
		}
		if p.Net.ChurnMeanUp > 0 {
			churned++
		}
	}
	if withTraffic < 2 {
		t.Errorf("only %d presets declare sustained traffic", withTraffic)
	}
	if churned == 0 {
		t.Error("no churned preset declares sustained traffic")
	}
}
