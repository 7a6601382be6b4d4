package mobility

import (
	"fmt"

	"card/internal/geom"
	"card/internal/xrand"
)

// RPGMConfig parameterizes reference-point group mobility.
type RPGMConfig struct {
	// Groups is the number of groups (>= 1). Node i belongs to group
	// i mod Groups.
	Groups int
	// GroupRadius bounds each member's offset from the group reference
	// point: offsets stay inside the square [-GroupRadius, GroupRadius]²
	// (>= 0; 0 collapses the group onto its reference point).
	GroupRadius float64
	// Leader is the random-waypoint process the group reference point
	// follows across the deployment area.
	Leader RWPConfig
	// MemberSpeed is the maximum speed of a member's local motion around
	// the reference point in m/s (>= 0; 0 pins members to fixed offsets).
	// Member leg speeds are uniform in [MemberSpeed/4, MemberSpeed].
	MemberSpeed float64
	// MemberPause is the dwell between member jitter legs in seconds.
	MemberPause float64
}

func (c RPGMConfig) validate() error {
	if c.Groups < 1 {
		return fmt.Errorf("mobility: RPGM needs >= 1 group, got %d", c.Groups)
	}
	if c.GroupRadius < 0 {
		return fmt.Errorf("mobility: negative group radius %v", c.GroupRadius)
	}
	if c.MemberSpeed < 0 {
		return fmt.Errorf("mobility: negative member speed %v", c.MemberSpeed)
	}
	if c.MemberPause < 0 {
		return fmt.Errorf("mobility: negative member pause %v", c.MemberPause)
	}
	return c.Leader.validate()
}

// RPGM implements reference-point group mobility (Hong et al.): each group
// owns a logical reference point that performs a random-waypoint walk over
// the deployment area, and each member holds a local offset from that
// reference point that itself performs a bounded random-waypoint walk
// inside the GroupRadius square. A member's position is the clamped sum
//
//	pos(i, t) = clamp(group(i mod Groups, t) + offset(i, t))
//
// so groups move coherently while members churn links inside the group —
// the classic stressor for contact-based schemes, whose contacts want to
// bridge *between* clusters rather than within them.
//
// Like RandomWaypoint, the model is analytic: group and member legs are
// deterministic functions of the construction seed, sampled lazily as time
// advances. Sampling times must be non-decreasing. Groups draw from the
// substreams (0, g) of the construction RNG, members from (1, i), so group
// count and node count perturb each other's trajectories minimally.
type RPGM struct {
	cfg  RPGMConfig
	area geom.Rect

	groupRngs []*xrand.Rand
	groupLegs []leg

	memberRngs []*xrand.Rand
	memberLegs []leg
}

// NewRPGM creates a reference-point group mobility model for n nodes.
func NewRPGM(n int, area geom.Rect, cfg RPGMConfig, rng *xrand.Rand) (*RPGM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &RPGM{
		cfg:        cfg,
		area:       area,
		groupRngs:  make([]*xrand.Rand, cfg.Groups),
		groupLegs:  make([]leg, cfg.Groups),
		memberRngs: make([]*xrand.Rand, n),
		memberLegs: make([]leg, n),
	}
	for g := 0; g < cfg.Groups; g++ {
		m.groupRngs[g] = rng.SplitStream(0, uint64(g))
		start := geom.Point{X: m.groupRngs[g].Range(0, area.W), Y: m.groupRngs[g].Range(0, area.H)}
		m.groupLegs[g] = m.nextGroupLeg(g, start, 0)
	}
	for i := 0; i < n; i++ {
		m.memberRngs[i] = rng.SplitStream(1, uint64(i))
		start := m.drawOffset(m.memberRngs[i])
		m.memberLegs[i] = m.nextMemberLeg(i, start, 0)
	}
	return m, nil
}

// drawOffset samples a uniform offset in the GroupRadius square.
func (m *RPGM) drawOffset(r *xrand.Rand) geom.Point {
	if m.cfg.GroupRadius == 0 {
		return geom.Point{}
	}
	return geom.Point{
		X: r.Range(-m.cfg.GroupRadius, m.cfg.GroupRadius),
		Y: r.Range(-m.cfg.GroupRadius, m.cfg.GroupRadius),
	}
}

// nextGroupLeg draws the reference point's next waypoint and speed.
func (m *RPGM) nextGroupLeg(g int, p geom.Point, t float64) leg {
	r := m.groupRngs[g]
	dest := geom.Point{X: r.Range(0, m.area.W), Y: r.Range(0, m.area.H)}
	speed := r.Range(m.cfg.Leader.MinSpeed, m.cfg.Leader.MaxSpeed)
	if speed <= 0 {
		speed = m.cfg.Leader.MinSpeed
	}
	depart := t + m.cfg.Leader.Pause
	return leg{from: p, to: dest, depart: depart, arrive: depart + p.Dist(dest)/speed}
}

// nextMemberLeg draws the member's next offset waypoint inside the group
// square. With MemberSpeed == 0 the leg is a fixed point that never
// arrives (offsets are static).
func (m *RPGM) nextMemberLeg(i int, p geom.Point, t float64) leg {
	r := m.memberRngs[i]
	if m.cfg.MemberSpeed == 0 || m.cfg.GroupRadius == 0 {
		return leg{from: p, to: p, depart: t, arrive: inf()}
	}
	dest := m.drawOffset(r)
	speed := r.Range(m.cfg.MemberSpeed/4, m.cfg.MemberSpeed)
	if speed <= 0 {
		speed = m.cfg.MemberSpeed
	}
	depart := t + m.cfg.MemberPause
	return leg{from: p, to: dest, depart: depart, arrive: depart + p.Dist(dest)/speed}
}

func inf() float64 { return 1e300 }

// N implements Model.
func (m *RPGM) N() int { return len(m.memberLegs) }

// Area implements Model.
func (m *RPGM) Area() geom.Rect { return m.area }

// PositionsAt implements Model. t must be non-decreasing across calls.
func (m *RPGM) PositionsAt(t float64, dst []geom.Point) {
	for g := range m.groupLegs {
		l := &m.groupLegs[g]
		for t >= l.arrive {
			*l = m.nextGroupLeg(g, l.to, l.arrive)
		}
	}
	for i := range m.memberLegs {
		l := &m.memberLegs[i]
		for t >= l.arrive {
			*l = m.nextMemberLeg(i, l.to, l.arrive)
		}
		ref := legAt(&m.groupLegs[i%m.cfg.Groups], t)
		off := legAt(l, t)
		dst[i] = m.area.Clamp(geom.Point{X: ref.X + off.X, Y: ref.Y + off.Y})
	}
}

// legAt evaluates a leg's position at time t (t < arrive).
func legAt(l *leg, t float64) geom.Point {
	if t <= l.depart {
		return l.from
	}
	frac := (t - l.depart) / (l.arrive - l.depart)
	return l.from.Lerp(l.to, frac)
}
