package sweep

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	proto "card/internal/card"
	"card/internal/engine"
)

func TestParseSpecRangesAndLists(t *testing.T) {
	axes, err := ParseSpec("NoC=1..4;r=8..16..4;Method=EM,PM2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Axis{
		{Name: "NoC", Values: []float64{1, 2, 3, 4}},
		{Name: "r", Values: []float64{8, 12, 16}},
		{Name: "Method", Values: []float64{float64(proto.EM), float64(proto.PM2)}},
	}
	if !reflect.DeepEqual(axes, want) {
		t.Errorf("axes = %+v, want %+v", axes, want)
	}
}

func TestParseSpecCaseRules(t *testing.T) {
	// R and r are distinct axes; aliases are case-insensitive.
	axes, err := ParseSpec("R=2,3; r=8..10; depth=1..2; vp=0.5,1")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(axes))
	for i, a := range axes {
		names[i] = a.Name
	}
	if got := strings.Join(names, " "); got != "R r D VP" {
		t.Errorf("canonical names = %q, want %q", got, "R r D VP")
	}
	cfg := proto.Config{NoC: 3, Method: proto.EM}
	g := &Grid{Base: cfg, Axes: axes}
	c, err := g.Config([]float64{3, 10, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Proto.R != 3 || c.Proto.MaxContactDist != 10 || c.Proto.Depth != 2 || c.Proto.ValidatePeriod != 0.5 {
		t.Errorf("applied config = %+v", c)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",                                                        // empty grid
		"NoC",                                                     // no values
		"bogus=1..3",                                              // unknown axis
		"NoC=3..1",                                                // descending range
		"NoC=1..5..0",                                             // zero step
		"NoC=1.5,2",                                               // non-integer on an int axis
		"Method=EM,QM",                                            // unknown method
		"D=0..2",                                                  // below minimum
		"VP=0,1",                                                  // non-positive period
		"NoC=1..3;noc=2",                                          // duplicate axis (checked by Validate below)
		"NoC=x",                                                   // unparseable
		"r=8..16..2..1",                                           // too many range parts
		"Loss=nan;NoC=2", "RangeSpread=nan", "ValidatePeriod=inf", // non-finite values
		"Loss=0..0.5..inf", "Loss=0..nan", // non-finite range step and bound
	} {
		axes, err := ParseSpec(bad)
		if err == nil {
			g := &Grid{Axes: axes}
			err = g.Validate()
		}
		if err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Validate is the same gate for grids built in code.
	g := &Grid{Axes: []Axis{{Name: "Loss", Values: []float64{math.NaN()}}}}
	if err := g.Validate(); err == nil {
		t.Error("Grid.Validate accepted a NaN axis value")
	}
}

func TestGridEnumeration(t *testing.T) {
	g := &Grid{
		Axes: []Axis{
			{Name: "NoC", Values: []float64{2, 4}},
			{Name: "r", Values: []float64{8, 10, 12}},
		},
		Seeds: 2,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Points() != 6 || g.Cells() != 12 {
		t.Fatalf("points=%d cells=%d, want 6/12", g.Points(), g.Cells())
	}
	// Last axis varies fastest.
	wantPoints := [][]float64{
		{2, 8}, {2, 10}, {2, 12}, {4, 8}, {4, 10}, {4, 12},
	}
	for i, want := range wantPoints {
		if got := g.Point(i); !reflect.DeepEqual(got, want) {
			t.Errorf("Point(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestRunCellsOrderAndSeeds(t *testing.T) {
	g := &Grid{
		Base:  proto.Config{R: 2, MaxContactDist: 8},
		Axes:  []Axis{{Name: "NoC", Values: []float64{1, 2, 3}}},
		Seeds: 2,
	}
	type cellID struct {
		noc  int
		seed uint64
	}
	got, err := RunCells(g, func(cfg CellConfig, point []float64, pointIdx int, seed uint64) cellID {
		if int(point[0]) != cfg.Proto.NoC {
			t.Errorf("point %v vs applied NoC %d", point, cfg.Proto.NoC)
		}
		return cellID{cfg.Proto.NoC, seed}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []cellID{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cells = %v, want %v", got, want)
	}
}

func TestParetoFrontier(t *testing.T) {
	mk := func(over, reach float64) PointResult {
		return PointResult{Metrics: Metrics{Overhead: over, Reach: reach}}
	}
	r := &Result{Points: []PointResult{
		mk(1, 40),  // frontier: cheapest
		mk(2, 60),  // frontier
		mk(2, 50),  // dominated by (2,60)
		mk(3, 60),  // dominated by (2,60)
		mk(5, 90),  // frontier: best reach
		mk(5, 90),  // identical twin: ties survive
		mk(10, 85), // dominated by (5,90)
	}}
	got := r.Pareto()
	want := []int{0, 1, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Pareto() = %v, want %v", got, want)
	}
}

// testRunner returns a deterministic synthetic runner: metrics are pure
// functions of (pointIdx, seed), so equivalence and aggregation are
// checkable without simulation cost.
func testRunner(cfg CellConfig, _ []float64, pointIdx int, seed uint64) (Metrics, error) {
	v := float64(pointIdx*100) + float64(seed)
	return Metrics{Overhead: v, Reach: 100 - v/10, Success: 50 + v/7}, nil
}

func TestRunAggregatesSeeds(t *testing.T) {
	g := &Grid{
		Base:  proto.Config{R: 2, MaxContactDist: 8},
		Axes:  []Axis{{Name: "NoC", Values: []float64{1, 2}}},
		Seeds: 2,
	}
	res, err := g.Run(testRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || len(res.Points) != 2 {
		t.Fatalf("cells=%d points=%d", len(res.Cells), len(res.Points))
	}
	// Point 0: seeds 1 and 2 -> overheads 1, 2 -> mean 1.5.
	if got := res.Points[0].Metrics.Overhead; got != 1.5 {
		t.Errorf("point 0 overhead = %v, want 1.5", got)
	}
	// Point 1: overheads 101, 102 -> mean 101.5.
	if got := res.Points[1].Metrics.Overhead; got != 101.5 {
		t.Errorf("point 1 overhead = %v, want 101.5", got)
	}
	// Lower overhead and higher reach: point 0 alone is the frontier.
	if !res.Points[0].OnFrontier || res.Points[1].OnFrontier {
		t.Errorf("frontier flags = %v/%v, want true/false",
			res.Points[0].OnFrontier, res.Points[1].OnFrontier)
	}
}

func TestResultEmission(t *testing.T) {
	g := &Grid{
		Base: proto.Config{R: 2, MaxContactDist: 8},
		Axes: []Axis{
			{Name: "NoC", Values: []float64{1, 2}},
			{Name: "Method", Values: []float64{float64(proto.EM), float64(proto.PM1)}},
		},
	}
	res, err := g.Run(testRunner)
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "NoC,Method,overhead/node/s,") {
		t.Errorf("CSV header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if !strings.Contains(csv, "EM") || !strings.Contains(csv, "PM1") {
		t.Errorf("CSV does not render method names:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 5 {
		t.Errorf("CSV has %d lines, want 5 (header + 4 points)", lines)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"axes"`, `"points"`, `"cells"`, `"pareto"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestRunSurfacesCellErrors(t *testing.T) {
	g := &Grid{
		// r == R is invalid: every cell fails engine-side validation.
		Base: proto.Config{R: 4, MaxContactDist: 4},
		Axes: []Axis{{Name: "NoC", Values: []float64{1}}},
	}
	er := EngineRunner{
		Net:  engine.NetworkConfig{Nodes: 20, Width: 200, Height: 200, TxRange: 60},
		Seed: 1,
	}
	if _, err := g.Run(er.Run); err == nil {
		t.Fatal("invalid cell config did not surface an error")
	}
}

// TestEngineRunnerRefusesNoC0 pins that a NoC = 0 point is an error, not a
// silently relabelled run: Config.Validate reads NoC 0 as the default, so
// the cell used to report a 5-contact run under a NoC=0 label.
func TestEngineRunnerRefusesNoC0(t *testing.T) {
	g := &Grid{
		Base: proto.Config{R: 2, MaxContactDist: 8, NoC: 3},
		Axes: []Axis{{Name: "NoC", Values: []float64{0, 5}}},
	}
	er := EngineRunner{
		Net:  engine.NetworkConfig{Nodes: 20, Width: 200, Height: 200, TxRange: 60},
		Seed: 1,
	}
	_, err := g.Run(er.Run)
	if err == nil || !strings.Contains(err.Error(), "NoC = 0") {
		t.Fatalf("NoC=0 sweep: err = %v, want a NoC = 0 refusal", err)
	}
}

// sweepGrid12 is the acceptance grid: 6 points x 2 seeds = 12 cells of
// real engine runs, small enough for CI.
func sweepGrid12() (*Grid, EngineRunner) {
	g := &Grid{
		Base: proto.Config{R: 2, MaxContactDist: 10, Depth: 2, Method: proto.EM, ValidatePeriod: 1},
		Axes: []Axis{
			{Name: "NoC", Values: []float64{2, 4}},
			{Name: "r", Values: []float64{8, 10, 12}},
		},
		Seeds: 2,
	}
	er := EngineRunner{
		Net: engine.NetworkConfig{
			Nodes: 150, Width: 400, Height: 400, TxRange: 60,
			Mobility: engine.RandomWaypoint, MinSpeed: 1, MaxSpeed: 10,
		},
		Horizon: 3,
		Queries: 50,
		Seed:    42,
	}
	return g, er
}

// TestSweepParallelEquivalence pins the sweep determinism contract: a
// 12-cell grid of real engine runs produces bit-identical cell and point
// metrics at GOMAXPROCS 2, 3 and 4 as at GOMAXPROCS 1, where the cells run
// serially (run with -race in CI). auto-procs4 reruns the reference's own
// Grid and EngineRunner at GOMAXPROCS 4: neither holds a width, so the
// same values fan out to four workers on the second run. scheme-card
// names the scheme the reference leaves empty.
func TestSweepParallelEquivalence(t *testing.T) {
	runOn := func(g *Grid, er EngineRunner, procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := g.Run(er.Run)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	g1, er1 := sweepGrid12()
	base := runOn(g1, er1, 1) // serial reference
	if len(base.Cells) != 12 {
		t.Fatalf("grid has %d cells, want 12", len(base.Cells))
	}
	// The grid must produce non-trivial measurements to be a meaningful pin.
	for p, pr := range base.Points {
		if pr.Metrics.Overhead <= 0 || pr.Metrics.Reach <= 0 {
			t.Fatalf("point %d has degenerate metrics %+v", p, pr.Metrics)
		}
	}
	if len(base.Pareto()) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	fresh := func(procs int) func() *Result {
		return func() *Result {
			g, er := sweepGrid12()
			return runOn(g, er, procs)
		}
	}
	for _, c := range []struct {
		name string
		run  func() *Result
	}{
		{"workers2-procs2", fresh(2)},
		{"workers3-procs3", fresh(3)},
		{"workers4-procs4", fresh(4)},
		{"auto-procs4", func() *Result { return runOn(g1, er1, 4) }},
		// The empty scheme is card: naming it runs the same cell body.
		{"scheme-card", func() *Result {
			g, er := sweepGrid12()
			g.Scheme = "card"
			return runOn(g, er, 1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := c.run()
			if !reflect.DeepEqual(got.Cells, base.Cells) {
				t.Errorf("cell metrics diverge from the serial reference")
			}
			if !reflect.DeepEqual(got.Points, base.Points) {
				t.Errorf("point aggregates diverge from the serial reference")
			}
		})
	}
}
