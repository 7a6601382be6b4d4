// Package mobility provides node-movement models for the MANET simulator.
//
// The paper evaluates CARD under the random way-point (RWP) model; the
// package also offers Static (the paper's sensor-network motivation), a
// bounded RandomWalk for robustness experiments, and the scenario-diversity
// models the small-worlds companion work motivates: GaussMarkov (smooth
// autoregressive drift with tunable memory), RPGM (reference-point group
// mobility — coherent groups with bounded member jitter), and TraceReplay
// (ns-2 setdest traces with piecewise-linear interpolation, so external
// workloads become first-class scenarios).
//
// Waypoint-style models (RWP, RPGM, TraceReplay) are *analytic*:
// Positions(t) is a pure function of the model's seed and t (each node
// follows a deterministic sequence of legs), so the simulator can sample
// positions at arbitrary times without integrating, and two samplings of
// the same time agree exactly. Velocity-process models (RandomWalk,
// GaussMarkov) integrate in fixed epochs instead. All implementations are
// deterministic per construction seed — each node owns a derived RNG
// stream — and require non-decreasing sampling times per model instance.
package mobility

import (
	"fmt"

	"card/internal/geom"
	"card/internal/xrand"
)

// Model yields node positions over time. Time arguments must be
// non-decreasing across calls (the simulator's clock is monotone).
type Model interface {
	// N returns the number of nodes.
	N() int
	// Area returns the deployment area.
	Area() geom.Rect
	// PositionsAt fills dst (length N) with node positions at time t.
	PositionsAt(t float64, dst []geom.Point)
}

// Static pins nodes at their initial placement forever.
type Static struct {
	area geom.Rect
	pos  []geom.Point
}

// NewStatic creates a static model over the given positions.
func NewStatic(pos []geom.Point, area geom.Rect) *Static {
	return &Static{area: area, pos: append([]geom.Point(nil), pos...)}
}

// N implements Model.
func (s *Static) N() int { return len(s.pos) }

// Area implements Model.
func (s *Static) Area() geom.Rect { return s.area }

// PositionsAt implements Model.
func (s *Static) PositionsAt(_ float64, dst []geom.Point) {
	copy(dst, s.pos)
}

// RWPConfig parameterizes the random way-point model.
type RWPConfig struct {
	MinSpeed float64 // m/s, > 0 (zero min speed famously decays RWP to a halt)
	MaxSpeed float64 // m/s, >= MinSpeed
	Pause    float64 // seconds to dwell at each waypoint, >= 0
}

func (c RWPConfig) validate() error {
	if c.MinSpeed <= 0 {
		return fmt.Errorf("mobility: MinSpeed must be > 0, got %v", c.MinSpeed)
	}
	if c.MaxSpeed < c.MinSpeed {
		return fmt.Errorf("mobility: MaxSpeed %v < MinSpeed %v", c.MaxSpeed, c.MinSpeed)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.Pause)
	}
	return nil
}

// leg is one segment of a node's trajectory: pause at From until Depart,
// then move to To, arriving at Arrive.
type leg struct {
	from, to geom.Point
	depart   float64
	arrive   float64
}

// RandomWaypoint implements the classic RWP model: each node repeatedly
// picks a uniform destination in the area and a uniform speed in
// [MinSpeed, MaxSpeed], travels there in a straight line, pauses, and
// repeats. Each node has its own derived RNG stream, so trajectories are
// independent of each other and of sampling granularity.
type RandomWaypoint struct {
	cfg  RWPConfig
	area geom.Rect
	rngs []*xrand.Rand
	legs []leg

	// Lazy-stepping state (see Stepper): pos holds every node's position
	// as of now; a node is either dwelling (in the paused wake queue,
	// keyed by its leg departure) or traveling (on the active list). moved
	// is the scratch slice StepTo returns; work counts per-node
	// advancement operations for the zero-work regression tests.
	now    float64
	pos    []geom.Point
	paused WakeQueue
	active []int32
	moved  []int32
	work   uint64
}

// NewRandomWaypoint creates an RWP model for n nodes. Initial positions are
// uniform in the area (the standard, if slightly non-stationary, choice).
func NewRandomWaypoint(n int, area geom.Rect, cfg RWPConfig, rng *xrand.Rand) (*RandomWaypoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &RandomWaypoint{
		cfg:    cfg,
		area:   area,
		rngs:   make([]*xrand.Rand, n),
		legs:   make([]leg, n),
		pos:    make([]geom.Point, n),
		paused: make(WakeQueue, 0, n),
	}
	for i := 0; i < n; i++ {
		m.rngs[i] = rng.Derive(uint64(i))
		start := geom.Point{X: m.rngs[i].Range(0, area.W), Y: m.rngs[i].Range(0, area.H)}
		m.legs[i] = m.nextLeg(i, start, 0)
		// At t=0 every node sits at its start until the first departure
		// (depart = Pause >= 0), so all nodes enter the wake queue; one
		// Init beats n ordered pushes.
		m.pos[i] = start
		m.paused = append(m.paused, Wake{At: m.legs[i].depart, ID: int32(i)})
	}
	m.paused.Init()
	return m, nil
}

// nextLeg draws the following waypoint and speed for node i, departing from
// p at time t (after the configured pause).
func (m *RandomWaypoint) nextLeg(i int, p geom.Point, t float64) leg {
	r := m.rngs[i]
	dest := geom.Point{X: r.Range(0, m.area.W), Y: r.Range(0, m.area.H)}
	speed := r.Range(m.cfg.MinSpeed, m.cfg.MaxSpeed)
	if speed <= 0 { // MinSpeed>0 guarantees this, but belt and braces
		speed = m.cfg.MinSpeed
	}
	depart := t + m.cfg.Pause
	travel := p.Dist(dest) / speed
	return leg{from: p, to: dest, depart: depart, arrive: depart + travel}
}

// N implements Model.
func (m *RandomWaypoint) N() int { return len(m.legs) }

// Area implements Model.
func (m *RandomWaypoint) Area() geom.Rect { return m.area }

// PositionsAt implements Model. t must be non-decreasing across calls.
// It is StepTo plus a full copy; both samplers share one trajectory state,
// so interleaving them is safe and bit-identical.
func (m *RandomWaypoint) PositionsAt(t float64, dst []geom.Point) {
	m.StepTo(t)
	copy(dst, m.pos)
}

// RandomWalk moves each node with a constant speed in a random direction,
// re-drawing the direction every Epoch seconds and reflecting off the area
// boundary. A simple adversarial complement to RWP (no convergence to the
// center, persistent motion everywhere).
type RandomWalk struct {
	area  geom.Rect
	speed float64
	epoch float64
	rngs  []*xrand.Rand
	pos   []geom.Point
	vel   []geom.Point
	now   float64
	// phase is the time integrated since the last direction redraw;
	// redraws fire whenever it completes an epoch, independent of how
	// finely PositionsAt is sampled.
	phase float64
}

// NewRandomWalk creates a random-walk model with the given constant speed
// (m/s) and direction-change epoch (s).
func NewRandomWalk(pos []geom.Point, area geom.Rect, speed, epoch float64, rng *xrand.Rand) (*RandomWalk, error) {
	if speed < 0 {
		return nil, fmt.Errorf("mobility: negative speed %v", speed)
	}
	if epoch <= 0 {
		return nil, fmt.Errorf("mobility: non-positive epoch %v", epoch)
	}
	m := &RandomWalk{
		area:  area,
		speed: speed,
		epoch: epoch,
		rngs:  make([]*xrand.Rand, len(pos)),
		pos:   append([]geom.Point(nil), pos...),
		vel:   make([]geom.Point, len(pos)),
	}
	for i := range m.rngs {
		m.rngs[i] = rng.Derive(uint64(i))
		m.redraw(i)
	}
	return m, nil
}

func (m *RandomWalk) redraw(i int) {
	// Uniform direction via rejection sampling on the unit disk: avoids
	// importing math just for Sincos and stays exactly reproducible.
	r := m.rngs[i]
	for {
		x, y := r.Range(-1, 1), r.Range(-1, 1)
		n := geom.Point{X: x, Y: y}.Norm()
		if n > 1e-3 && n <= 1 {
			m.vel[i] = geom.Point{X: x / n * m.speed, Y: y / n * m.speed}
			return
		}
	}
}

// N implements Model.
func (m *RandomWalk) N() int { return len(m.pos) }

// Area implements Model.
func (m *RandomWalk) Area() geom.Rect { return m.area }

// stepEpochs integrates a velocity-process model from *now to t in steps
// that never cross an epoch boundary: advance(dt) integrates the current
// velocities, and onEpoch fires exactly when accumulated time completes an
// epoch — independent of how finely the caller samples — so sub-epoch
// sampling cannot starve the velocity process. *phase carries the partial
// epoch across calls. Shared by RandomWalk and GaussMarkov.
func stepEpochs(t float64, now, phase *float64, epoch float64, advance func(dt float64), onEpoch func()) {
	for t > *now {
		dt := t - *now
		if remain := epoch - *phase; dt >= remain {
			advance(remain)
			*now += remain
			onEpoch()
			*phase = 0
			continue
		}
		advance(dt)
		*now += dt
		*phase += dt
	}
}

// PositionsAt implements Model. Advances internal state; t must be
// non-decreasing. Direction redraws fire whenever integrated time
// completes an epoch — also across calls — so sub-epoch sampling does not
// starve them.
func (m *RandomWalk) PositionsAt(t float64, dst []geom.Point) {
	stepEpochs(t, &m.now, &m.phase, m.epoch, m.advance, func() {
		for i := range m.rngs {
			m.redraw(i)
		}
	})
	copy(dst, m.pos)
}

func (m *RandomWalk) advance(dt float64) {
	for i := range m.pos {
		p := geom.Point{X: m.pos[i].X + m.vel[i].X*dt, Y: m.pos[i].Y + m.vel[i].Y*dt}
		// Reflect off each wall.
		if p.X < 0 {
			p.X = -p.X
			m.vel[i].X = -m.vel[i].X
		}
		if p.X > m.area.W {
			p.X = 2*m.area.W - p.X
			m.vel[i].X = -m.vel[i].X
		}
		if p.Y < 0 {
			p.Y = -p.Y
			m.vel[i].Y = -m.vel[i].Y
		}
		if p.Y > m.area.H {
			p.Y = 2*m.area.H - p.Y
			m.vel[i].Y = -m.vel[i].Y
		}
		m.pos[i] = m.area.Clamp(p)
	}
}
