package mobility

import (
	"strings"
	"testing"

	"card/internal/geom"
	"card/internal/xrand"
)

// buildModel constructs one of the new models for the shared property
// tests. Each call with equal (kind, seed) must yield an identical model.
func buildModel(t *testing.T, kind string, seed uint64) Model {
	t.Helper()
	area := geom.Rect{W: 800, H: 600}
	rng := xrand.New(seed)
	switch kind {
	case "gauss-markov":
		m, err := NewGaussMarkov(60, area, DefaultGM(), rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case "rpgm":
		m, err := NewRPGM(60, area, rescueRPGM(5), rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case "trace":
		tr := testTrace(t)
		m, err := NewTraceReplay(tr, area)
		if err != nil {
			t.Fatal(err)
		}
		return m
	default:
		t.Fatalf("unknown kind %q", kind)
		return nil
	}
}

// TestModelsStayInsideAreaAndDeterministic pins the two properties every
// model must satisfy: positions remain inside Area() at every sampled
// time, and two instances built from the same seed produce bit-identical
// trajectories under the same (monotone, irregular) sampling schedule.
func TestModelsStayInsideAreaAndDeterministic(t *testing.T) {
	times := []float64{0, 0.1, 0.25, 1, 1, 2.5, 3.1, 7, 19.99, 20, 33.3, 120}
	for _, kind := range []string{"gauss-markov", "rpgm", "trace"} {
		t.Run(kind, func(t *testing.T) {
			a := buildModel(t, kind, 42)
			b := buildModel(t, kind, 42)
			c := buildModel(t, kind, 43) // different seed: should diverge (except trace)
			area := a.Area()
			pa := make([]geom.Point, a.N())
			pb := make([]geom.Point, a.N())
			pc := make([]geom.Point, a.N())
			diverged := false
			for _, tm := range times {
				a.PositionsAt(tm, pa)
				b.PositionsAt(tm, pb)
				c.PositionsAt(tm, pc)
				for i := range pa {
					if !area.Contains(pa[i]) {
						t.Fatalf("t=%v node %d at %v outside %v", tm, i, pa[i], area)
					}
					if pa[i] != pb[i] {
						t.Fatalf("t=%v node %d: same seed diverged: %v vs %v", tm, i, pa[i], pb[i])
					}
					if pa[i] != pc[i] {
						diverged = true
					}
				}
			}
			if kind != "trace" && !diverged {
				t.Error("different seeds produced identical trajectories")
			}
		})
	}
}

// TestModelsMove sanity-checks that the stochastic models actually move
// nodes (a frozen model would trivially pass the area property).
func TestModelsMove(t *testing.T) {
	for _, kind := range []string{"gauss-markov", "rpgm"} {
		m := buildModel(t, kind, 7)
		p0 := make([]geom.Point, m.N())
		p1 := make([]geom.Point, m.N())
		m.PositionsAt(0, p0)
		m.PositionsAt(30, p1)
		moved := 0
		for i := range p0 {
			if p0[i].Dist(p1[i]) > 1 {
				moved++
			}
		}
		if moved < m.N()/2 {
			t.Errorf("%s: only %d/%d nodes moved > 1 m over 30 s", kind, moved, m.N())
		}
	}
}

// TestVelocityModelsUpdateUnderSubEpochSampling regresses the
// sampling-granularity bug: the AR(1) (Gauss–Markov) and redraw
// (RandomWalk) velocity processes must step whenever integrated time
// completes an epoch, even when every PositionsAt call advances by less
// than one epoch — the engine's refresh cadence. Under the bug, sub-epoch
// sampling froze the velocity state and both models degenerated to
// straight-line billiard motion (constant per-epoch displacement).
func TestVelocityModelsUpdateUnderSubEpochSampling(t *testing.T) {
	area := geom.Rect{W: 5000, H: 5000} // huge: no reflections to muddy displacements
	gm, err := NewGaussMarkov(8, area, DefaultGM(), xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rw, err := NewRandomWalk(UniformTestPositions(8, area), area, 10, 1, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Model{"gauss-markov": gm, "walk": rw} {
		prev := make([]geom.Point, m.N())
		cur := make([]geom.Point, m.N())
		m.PositionsAt(0, prev)
		var disps []geom.Point
		for tm := 0.25; tm <= 20+1e-9; tm += 0.25 { // strictly sub-epoch steps
			m.PositionsAt(tm, cur)
			if tm == float64(int(tm)) { // epoch boundary: record node 0's displacement
				disps = append(disps, geom.Point{X: cur[0].X - prev[0].X, Y: cur[0].Y - prev[0].Y})
				copy(prev, cur)
			}
		}
		varied := false
		for i := 1; i < len(disps); i++ {
			if disps[i] != disps[0] {
				varied = true
				break
			}
		}
		if !varied {
			t.Errorf("%s: per-epoch displacement constant over 20 s of sub-epoch sampling — velocity process never updated", name)
		}
	}
}

// UniformTestPositions is a tiny local stand-in for
// topology.UniformPositions (mobility must not import topology).
func UniformTestPositions(n int, area geom.Rect) []geom.Point {
	rng := xrand.New(99)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Range(0, area.W), Y: rng.Range(0, area.H)}
	}
	return pts
}

// rescueRPGM is a rescue-team-like tuning: slow group leaders with
// pauses, members drifting within 150 m of the reference point.
func rescueRPGM(groups int) RPGMConfig {
	return RPGMConfig{
		Groups:      groups,
		GroupRadius: 150,
		Leader:      RWPConfig{MinSpeed: 1, MaxSpeed: 5, Pause: 30},
		MemberSpeed: 2,
	}
}

// TestRPGMGroupCoherence checks the defining property of group mobility:
// a node stays within GroupRadius·√2 (box diagonal) of its group's other
// members' reference point, i.e. intra-group spread is bounded while the
// whole group travels.
func TestRPGMGroupCoherence(t *testing.T) {
	area := geom.Rect{W: 2000, H: 2000}
	cfg := rescueRPGM(4)
	m, err := NewRPGM(40, area, cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]geom.Point, m.N())
	maxSpread := 2 * cfg.GroupRadius * 1.4143 // two offsets, box diagonal each
	for _, tm := range []float64{0, 5, 17, 60, 200} {
		m.PositionsAt(tm, pos)
		for i := 0; i < m.N(); i++ {
			for j := i + cfg.Groups; j < m.N(); j += cfg.Groups {
				if i%cfg.Groups != j%cfg.Groups {
					continue
				}
				// Same group: mutual distance bounded by twice the offset
				// diagonal (clamping at the walls only shrinks distances).
				if d := pos[i].Dist(pos[j]); d > maxSpread {
					t.Fatalf("t=%v: group members %d,%d spread %v > %v", tm, i, j, d, maxSpread)
				}
			}
		}
	}
}

const sampleTrace = `
# three nodes, setdest-style (GOD annotations interleaved, as the real
# tool emits them)
$node_(0) set X_ 10.0
$node_(0) set Y_ 20.0
$node_(0) set Z_ 0.0
$node_(1) set X_ 700.0
$node_(1) set Y_ 500.0
$node_(2) set X_ 400.0
$node_(2) set Y_ 300.0
$god_ set-dist 0 1 2
$god_ set-dist 0 2 1

$ns_ at 1.0 "$node_(0) setdest 110.0 20.0 10.0"
$ns_ at 5.0 "$node_(0) setdest 110.0 120.0 5.0"
$ns_ at 2.0 "$node_(1) setdest 700.0 100.0 20.0"
$ns_ at 3.5 "$god_ set-dist 1 2 3"
$ns_ at 4.0 "$node_(1) setdest 0.0 0.0 0.0"
`

func testTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := ParseSetdest(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseSetdest(t *testing.T) {
	tr := testTrace(t)
	if tr.N() != 3 {
		t.Fatalf("trace N = %d, want 3", tr.N())
	}
	if tr.Initial[1] != (geom.Point{X: 700, Y: 500}) {
		t.Errorf("node 1 initial = %v", tr.Initial[1])
	}
	if len(tr.Events[0]) != 2 || len(tr.Events[1]) != 2 || len(tr.Events[2]) != 0 {
		t.Fatalf("event counts: %d/%d/%d", len(tr.Events[0]), len(tr.Events[1]), len(tr.Events[2]))
	}
	if e := tr.Events[0][1]; e.T != 5 || e.X != 110 || e.Y != 120 || e.Speed != 5 {
		t.Errorf("node 0 second event = %+v", e)
	}
}

func TestParseSetdestRejectsGarbage(t *testing.T) {
	bad := []string{
		`$node_(0) set X_ ten`,
		`$node_(0) sit X_ 10`,
		`wat`,
		`$ns_ at 1.0 "$node_(0) setdest 1.0 2.0"`,                                        // missing speed
		"$node_(0) set X_ 1\n$node_(0) set Y_ 1\n$node_(5) set X_ 1\n$node_(5) set Y_ 1", // sparse ids
		``, // empty
	}
	for _, src := range bad {
		if _, err := ParseSetdest(strings.NewReader(src)); err == nil {
			t.Errorf("ParseSetdest accepted %q", src)
		}
	}
}

// TestTraceReplayInterpolation walks the sample trace through its known
// piecewise-linear checkpoints, including a mid-flight course preemption.
func TestTraceReplayInterpolation(t *testing.T) {
	m, err := NewTraceReplay(testTrace(t), geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]geom.Point, m.N())

	approx := func(a, b geom.Point) bool { return a.Dist(b) < 1e-9 }
	// t=0: everyone at initial positions.
	m.PositionsAt(0, pos)
	if !approx(pos[0], geom.Point{X: 10, Y: 20}) || !approx(pos[2], geom.Point{X: 400, Y: 300}) {
		t.Fatalf("t=0 positions wrong: %v", pos)
	}
	// t=0.5: node 0 hasn't departed yet.
	m.PositionsAt(0.5, pos)
	if !approx(pos[0], geom.Point{X: 10, Y: 20}) {
		t.Errorf("t=0.5 node 0 moved early: %v", pos[0])
	}
	// t=6: node 0 departed at t=1 toward (110,20) at 10 m/s (100 m, arrives
	// t=11) but was preempted at t=5 at (50,20), heading to (110,120) at
	// 5 m/s. One second in, it has gone 5 m along that course.
	m.PositionsAt(6, pos)
	want := geom.Point{X: 50, Y: 20}.Lerp(geom.Point{X: 110, Y: 120}, 5/geom.Point{X: 50, Y: 20}.Dist(geom.Point{X: 110, Y: 120}))
	if !approx(pos[0], want) {
		t.Errorf("t=6 node 0 = %v, want %v", pos[0], want)
	}
	// Node 1: paused at t=4 mid-flight from (700,500) to (700,100) at
	// 20 m/s — at t=4 it sits at (700, 460), forever.
	if !approx(pos[1], geom.Point{X: 700, Y: 460}) {
		t.Errorf("t=6 node 1 = %v, want (700, 460)", pos[1])
	}
	// t=1000: node 0 long arrived at (110,120); node 2 never moved.
	m.PositionsAt(1000, pos)
	if !approx(pos[0], geom.Point{X: 110, Y: 120}) || !approx(pos[2], geom.Point{X: 400, Y: 300}) {
		t.Errorf("t=1000 positions: %v", pos)
	}
}

func TestTraceBoundsInference(t *testing.T) {
	m, err := NewTraceReplay(testTrace(t), geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	if a := m.Area(); a.W != 700 || a.H != 500 {
		t.Errorf("inferred area = %v, want 700x500", a)
	}
}
