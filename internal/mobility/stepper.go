package mobility

import (
	"fmt"
	"slices"

	"card/internal/geom"
)

// Stepper is the lazy-stepping extension of Model: instead of filling an
// N-sized position array on every sample, a Stepper advances its internal
// state to t and reports only the nodes whose position actually changed.
// The substrate (manet.Network) detects the interface and patches just the
// moved nodes into the topology builder, so a network where most nodes are
// dwelling at a waypoint pays O(moved) per refresh, not O(N).
//
// The contract mirrors Model's analytic guarantee: positions returned by
// StepTo are bit-identical to what PositionsAt would have produced at the
// same time — laziness changes when per-node work happens, never its
// result. Implementations keep a per-node "quiet until" time (the leg
// departure) in a priority queue; a node is touched only while it is
// traveling or when its dwell expires.
type Stepper interface {
	Model
	// StepTo advances internal positions to time t (non-decreasing across
	// calls, interleavable with PositionsAt) and returns the ids of nodes
	// whose position changed since the previous sample, ascending and
	// duplicate-free, plus the full internal position slice. Both returns
	// alias model-owned storage: read-only, valid until the next call.
	StepTo(t float64) (moved []int32, pos []geom.Point)
	// PositionWork returns a monotone counter of per-node advancement
	// operations performed so far. A fully-paused network must advance it
	// by zero across a step — the lazy-mobility regression tests pin this.
	PositionWork() uint64
}

// StepTo implements Stepper for Static: nothing ever moves, nothing is
// ever touched.
func (s *Static) StepTo(float64) ([]int32, []geom.Point) { return nil, s.pos }

// PositionWork implements Stepper for Static (always zero).
func (s *Static) PositionWork() uint64 { return 0 }

// Wake is one sleeping node in a WakeQueue: ID is quiet until At.
type Wake struct {
	At float64
	ID int32
}

// WakeQueue is a binary min-heap on Wake.At: the RWP stepper's dwelling
// nodes keyed by leg departure, and manet.Churn's nodes keyed by their
// next up/down flip. Hand-rolled (rather than container/heap) to keep
// Push/Pop allocation-free on the refresh hot path. The order among equal
// At values is unspecified.
type WakeQueue []Wake

// Push adds e.
func (h *WakeQueue) Push(e Wake) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].At <= a[i].At {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

// Pop removes and returns the entry with the least At; the queue must
// not be empty.
func (h *WakeQueue) Pop() Wake {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	h.siftDown(0)
	return top
}

func (h *WakeQueue) siftDown(i int) {
	a := *h
	n := len(a)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && a[r].At < a[l].At {
			m = r
		}
		if a[i].At <= a[m].At {
			return
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
}

// Init establishes the heap invariant over arbitrary contents in O(n);
// used once at construction instead of n pushes.
func (h *WakeQueue) Init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// StepTo implements Stepper. Travelers are advanced and re-classified
// first; then every dwell that expired strictly before t is woken (a node
// departing exactly at t is still at its waypoint, matching the eager
// sampler's t <= depart rule). Per-node RNG draws happen in exactly the
// leg order the eager path would have used — laziness defers them, so the
// trajectory is bit-identical to sampling PositionsAt at every refresh.
func (m *RandomWaypoint) StepTo(t float64) ([]int32, []geom.Point) {
	if t < m.now {
		panic(fmt.Sprintf("mobility: StepTo(%v) before now %v", t, m.now))
	}
	if t == m.now {
		return nil, m.pos
	}
	m.moved = m.moved[:0]
	keep := m.active[:0]
	for _, i := range m.active {
		if m.advanceNode(int(i), t) {
			keep = append(keep, i)
		}
	}
	m.active = keep
	for len(m.paused) > 0 && m.paused[0].At < t {
		e := m.paused.Pop()
		if m.advanceNode(int(e.ID), t) {
			m.active = append(m.active, e.ID)
		}
	}
	m.now = t
	slices.Sort(m.moved)
	return m.moved, m.pos
}

// advanceNode brings node i to time t: consume completed legs, place the
// node on its current leg, and report whether it is still traveling
// (callers keep it on the active list) or dwelling (it re-enters the wake
// queue keyed by its departure time).
func (m *RandomWaypoint) advanceNode(i int, t float64) (traveling bool) {
	m.work++
	l := &m.legs[i]
	for t >= l.arrive {
		*l = m.nextLeg(i, l.to, l.arrive)
	}
	var p geom.Point
	traveling = t > l.depart
	if traveling {
		frac := (t - l.depart) / (l.arrive - l.depart)
		p = l.from.Lerp(l.to, frac)
	} else {
		p = l.from
	}
	if p != m.pos[i] {
		m.pos[i] = p
		m.moved = append(m.moved, int32(i))
	}
	if !traveling {
		m.paused.Push(Wake{At: l.depart, ID: int32(i)})
	}
	return traveling
}

// PositionWork implements Stepper.
func (m *RandomWaypoint) PositionWork() uint64 { return m.work }

var (
	_ Stepper = (*Static)(nil)
	_ Stepper = (*RandomWaypoint)(nil)
)
