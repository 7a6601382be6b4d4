package manet

import (
	"testing"

	"card/internal/geom"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

// TestRefreshZeroWorkWhilePaused pins the lazy refresh path end to end:
// while every random-waypoint node dwells in its initial pause, a refresh
// must perform zero position work (no node stepped, nothing moved), keep
// the adjacency diff empty, and still advance the epoch — the whole-stack
// quiet-refresh contract the 1M preset leans on.
func TestRefreshZeroWorkWhilePaused(t *testing.T) {
	area := geom.Rect{W: 1500, H: 1500}
	m, err := mobility.NewRandomWaypoint(300, area, mobility.RWPConfig{
		MinSpeed: 1, MaxSpeed: 19, Pause: 120,
	}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(m, Config{Link: topology.LinkModel{Uniform: 100}}, xrand.New(3))
	if w := m.PositionWork(); w != 0 {
		t.Fatalf("building the network performed %d position work", w)
	}
	links := n.Graph().Links()
	epoch := n.Epoch()
	for _, tt := range []float64{1, 2.5, 40, 119.9} {
		n.RefreshAt(tt)
		if w := m.PositionWork(); w != 0 {
			t.Fatalf("RefreshAt(%g) inside the dwell performed %d position work", tt, w)
		}
		if changed, all := n.AdjacencyChanged(); all || len(changed) != 0 {
			t.Fatalf("RefreshAt(%g) reported adjacency changes (%d, all=%v) on a fully-paused field", tt, len(changed), all)
		}
		if got := n.Graph().Links(); got != links {
			t.Fatalf("RefreshAt(%g) changed link count %d -> %d on a fully-paused field", tt, links, got)
		}
	}
	if n.Epoch() == epoch {
		t.Fatal("refreshes did not advance the epoch")
	}
}
