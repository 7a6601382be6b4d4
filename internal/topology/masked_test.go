package topology

import (
	"testing"

	"card/internal/geom"
	"card/internal/xrand"
)

// TestMaskedBuildersAgree drives every way of reaching a snapshot through
// a combined movement + churn trace under the plain uniform model and
// checks byte-identical structure: the naive masked scan is the reference,
// the one-shot build and the incremental builder — scanning, and fed a
// dirty list — must match it at every step, including steps where nodes
// move while down, flip state without moving, and flip en masse (crossing
// the full-rebuild threshold).
func TestMaskedBuildersAgree(t *testing.T) {
	const n = 220
	area := geom.Rect{W: 600, H: 600}
	lm := LinkModel{Uniform: 60}
	rng := xrand.New(19)
	pos := UniformPositions(n, area, rng)
	down := make([]bool, n)
	b := NewBuilder(n, area, lm)
	bDirty := NewBuilder(n, area, lm)

	check := func(dirty []NodeID) {
		t.Helper()
		want := buildNaive(pos, area, lm, down)
		graphsEqual(t, want, Build(pos, area, lm, down))
		graphsEqual(t, want, b.Update(pos, down, nil))
		graphsEqual(t, want, bDirty.Update(pos, down, dirty))
	}
	check(nil)

	for step := 0; step < 50; step++ {
		// Movement: a varying subset drifts (down nodes keep moving too —
		// their radios are off, not their legs).
		dirty := []NodeID{} // non-nil: "only these", even when empty
		movers := []int{0, 8, n / 2, n}[step%4]
		for k := 0; k < movers; k++ {
			i := rng.Intn(n)
			pos[i] = area.Clamp(geom.Point{
				X: pos[i].X + rng.Range(-70, 70),
				Y: pos[i].Y + rng.Range(-70, 70),
			})
			dirty = append(dirty, NodeID(i))
		}
		// Churn: flip a varying subset, including a mass-flip step.
		flips := []int{3, 0, n / 3, 1}[step%4]
		for k := 0; k < flips; k++ {
			i := rng.Intn(n)
			down[i] = !down[i]
			dirty = append(dirty, NodeID(i))
		}
		check(dirty)
	}
}

// TestMaskedDownNodesAreIsolated pins the mask semantics: a down node has
// no neighbors and appears in nobody's list, but keeps its id and
// position.
func TestMaskedDownNodesAreIsolated(t *testing.T) {
	area := geom.Rect{W: 100, H: 100}
	// Three collinear nodes all within range of each other.
	pos := []geom.Point{{X: 10, Y: 50}, {X: 50, Y: 50}, {X: 90, Y: 50}}
	down := []bool{false, true, false}
	for name, g := range map[string]*Graph{
		"naive": buildNaive(pos, area, LinkModel{Uniform: 60}, down),
		"grid":  Build(pos, area, LinkModel{Uniform: 60}, down),
	} {
		if g.Degree(1) != 0 {
			t.Errorf("%s: down node has %d neighbors", name, g.Degree(1))
		}
		for _, u := range []NodeID{0, 2} {
			for _, v := range g.Neighbors(u) {
				if v == 1 {
					t.Errorf("%s: down node listed as neighbor of %d", name, u)
				}
			}
		}
		if g.Pos(1) != pos[1] {
			t.Errorf("%s: down node lost its position", name)
		}
		// 0 and 2 are 80 m apart: adjacent only to each other via node 1,
		// which is down, so the up survivors are disconnected.
		if g.Adjacent(0, 2) {
			t.Errorf("%s: phantom link across the down node", name)
		}
	}
}

// TestBuilderMaskOnReinsertion checks the cold-readmission path: a node
// that moves while down must reappear at its new position with correct
// links when it comes back up.
func TestBuilderMaskOnReinsertion(t *testing.T) {
	area := geom.Rect{W: 200, H: 200}
	pos := []geom.Point{{X: 10, Y: 10}, {X: 20, Y: 10}, {X: 190, Y: 190}}
	down := []bool{false, false, false}
	lm := LinkModel{Uniform: 30}
	b := NewBuilder(3, area, lm)
	b.Update(pos, down, nil)

	// Node 1 goes down and wanders to the far corner next to node 2.
	down[1] = true
	b.Update(pos, down, nil)
	pos[1] = geom.Point{X: 180, Y: 190}
	b.Update(pos, down, nil)

	down[1] = false
	g := b.Update(pos, down, nil)
	graphsEqual(t, buildNaive(pos, area, lm, down), g)
	if !g.Adjacent(1, 2) || g.Adjacent(0, 1) {
		t.Errorf("readmitted node has wrong links: neighbors(1) = %v", g.Neighbors(1))
	}
}
