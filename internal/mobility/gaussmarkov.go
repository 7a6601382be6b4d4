package mobility

import (
	"fmt"
	"math"

	"card/internal/geom"
	"card/internal/xrand"
)

// GMConfig parameterizes the Gauss–Markov mobility model.
type GMConfig struct {
	// MeanSpeed is the asymptotic mean speed s̄ in m/s (> 0).
	MeanSpeed float64
	// Alpha is the memory parameter α in [0, 1]: 1 freezes the velocity
	// process (linear motion), 0 makes every epoch an independent draw
	// (Brownian-like motion). Typical literature values are 0.75–0.9.
	Alpha float64
	// SpeedSigma is the standard deviation of the speed noise in m/s
	// (>= 0); the stationary speed distribution is N(MeanSpeed, SpeedSigma).
	SpeedSigma float64
}

// The direction noise σ_θ (radians) and the velocity-update interval
// (seconds) are fixed: ~23° of direction noise per 1 s epoch.
const (
	gmDirSigma = 0.4
	gmEpoch    = 1.0
)

// DefaultGM returns the common Gauss–Markov tuning: 10 m/s mean speed with
// moderate memory (α = 0.75).
func DefaultGM() GMConfig {
	return GMConfig{MeanSpeed: 10, Alpha: 0.75, SpeedSigma: 2}
}

func (c GMConfig) validate() error {
	if c.MeanSpeed <= 0 {
		return fmt.Errorf("mobility: MeanSpeed must be > 0, got %v", c.MeanSpeed)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("mobility: Alpha %v outside [0, 1]", c.Alpha)
	}
	if c.SpeedSigma < 0 {
		return fmt.Errorf("mobility: negative speed sigma %v", c.SpeedSigma)
	}
	return nil
}

// GaussMarkov implements the Gauss–Markov mobility model: each node's
// speed and direction follow first-order autoregressive processes
//
//	s_k = α·s_{k-1} + (1-α)·s̄ + √(1-α²)·N(0, σ_s)
//	θ_k = α·θ_{k-1} + (1-α)·θ̄ + √(1-α²)·N(0, σ_θ)
//
// updated once per 1 s epoch, so trajectories are smooth (no RWP-style
// sharp turns) with tunable temporal correlation. Each node keeps its own
// mean direction θ̄ (drawn uniformly at construction), and nodes reflect
// off the area boundary — position, current direction and mean direction
// are all mirrored, which keeps the stationary node distribution uniform
// instead of piling mass at the walls.
//
// Each node draws from its own derived RNG stream, so trajectories are
// deterministic per construction seed and independent of sampling
// granularity at epoch resolution. Sampling times must be non-decreasing.
type GaussMarkov struct {
	cfg  GMConfig
	area geom.Rect
	rngs []*xrand.Rand
	pos  []geom.Point
	// speed, dir are the current velocity process state; meanDir is the
	// per-node θ̄ the direction process reverts to.
	speed, dir, meanDir []float64
	now                 float64
	// phase is the time integrated since the last velocity update; the
	// AR(1) step fires whenever it completes an epoch, so update times are
	// independent of how finely the caller samples PositionsAt.
	phase float64
}

// NewGaussMarkov creates a Gauss–Markov model for n nodes with uniform
// initial placement, uniform initial direction, and initial speed s̄.
func NewGaussMarkov(n int, area geom.Rect, cfg GMConfig, rng *xrand.Rand) (*GaussMarkov, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &GaussMarkov{
		cfg:     cfg,
		area:    area,
		rngs:    make([]*xrand.Rand, n),
		pos:     make([]geom.Point, n),
		speed:   make([]float64, n),
		dir:     make([]float64, n),
		meanDir: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.rngs[i] = rng.Derive(uint64(i))
		r := m.rngs[i]
		m.pos[i] = geom.Point{X: r.Range(0, area.W), Y: r.Range(0, area.H)}
		m.dir[i] = r.Range(0, 2*math.Pi)
		m.meanDir[i] = m.dir[i]
		m.speed[i] = cfg.MeanSpeed
	}
	return m, nil
}

// N implements Model.
func (m *GaussMarkov) N() int { return len(m.pos) }

// Area implements Model.
func (m *GaussMarkov) Area() geom.Rect { return m.area }

// PositionsAt implements Model. Advances internal state; t must be
// non-decreasing across calls. Velocity updates fire whenever integrated
// time completes an epoch — also across calls — so sampling finer than
// the epoch (the engine refreshes every ValidatePeriod slice) still steps
// the AR(1) process on schedule (see stepEpochs).
func (m *GaussMarkov) PositionsAt(t float64, dst []geom.Point) {
	stepEpochs(t, &m.now, &m.phase, gmEpoch, m.advance, m.updateVelocities)
	copy(dst, m.pos)
}

// advance integrates the current velocities over dt with boundary
// reflection.
func (m *GaussMarkov) advance(dt float64) {
	for i := range m.pos {
		sin, cos := math.Sincos(m.dir[i])
		p := geom.Point{
			X: m.pos[i].X + m.speed[i]*cos*dt,
			Y: m.pos[i].Y + m.speed[i]*sin*dt,
		}
		if p.X < 0 {
			p.X = -p.X
			m.dir[i] = math.Pi - m.dir[i]
			m.meanDir[i] = math.Pi - m.meanDir[i]
		}
		if p.X > m.area.W {
			p.X = 2*m.area.W - p.X
			m.dir[i] = math.Pi - m.dir[i]
			m.meanDir[i] = math.Pi - m.meanDir[i]
		}
		if p.Y < 0 {
			p.Y = -p.Y
			m.dir[i] = -m.dir[i]
			m.meanDir[i] = -m.meanDir[i]
		}
		if p.Y > m.area.H {
			p.Y = 2*m.area.H - p.Y
			m.dir[i] = -m.dir[i]
			m.meanDir[i] = -m.meanDir[i]
		}
		m.pos[i] = m.area.Clamp(p)
	}
}

// updateVelocities applies one step of the AR(1) recurrences.
func (m *GaussMarkov) updateVelocities() {
	a := m.cfg.Alpha
	noise := math.Sqrt(1 - a*a)
	speedNoise, dirNoise := noise*m.cfg.SpeedSigma, noise*gmDirSigma
	for i, r := range m.rngs {
		s := a*m.speed[i] + (1-a)*m.cfg.MeanSpeed + speedNoise*r.NormFloat64()
		if s < 0 {
			s = 0 // speeds are magnitudes; the direction term carries heading
		}
		m.speed[i] = s
		m.dir[i] = a*m.dir[i] + (1-a)*m.meanDir[i] + dirNoise*r.NormFloat64()
	}
}
