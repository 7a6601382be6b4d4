package scheme

import (
	"sort"
	"strings"
	"testing"

	"card/internal/card"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/resource"
	"card/internal/topology"
	"card/internal/xrand"
)

// testEnv builds a minimal static environment for registry-level tests.
func testEnv(t *testing.T, n int) Env {
	t.Helper()
	area := geom.Rect{W: 300, H: 300}
	rng := xrand.New(1)
	pts := topology.UniformPositions(n, area, rng)
	net := manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 60}}, rng.Derive(1))
	cfg := card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2}
	nb := neighborhood.NewOracle(net, cfg.R)
	prot, err := card.New(net, nb, cfg, rng.Derive(2))
	if err != nil {
		t.Fatal(err)
	}
	m := prot.NewMaintainer()
	round := prot.NextRound()
	for u := 0; u < net.N(); u++ {
		m.SelectNode(card.NodeID(u), 0, round)
	}
	m.Flush()
	return Env{Net: net, Prot: prot, Dir: resource.NewDirectory(net.N())}
}

func TestNamesSortedAndKnown(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names not sorted: %v", names)
	}
	for _, want := range []string{"bordercast", "card", "flood", "rendezvous", "ring"} {
		if !Known(want) {
			t.Errorf("built-in %q not Known", want)
		}
	}
	if Known("zone-flooding") {
		t.Error("Known accepted an unregistered name")
	}
}

func TestCanon(t *testing.T) {
	if got := Canon(""); got != "card" {
		t.Errorf("Canon(\"\") = %q, want card", got)
	}
	if got := Canon("ring"); got != "ring" {
		t.Errorf("Canon(ring) = %q", got)
	}
}

// TestBuiltinsIdentify pins that every built-in constructs over a full
// environment, reports its registered name, and tolerates the no-op
// lifecycle calls.
func TestBuiltinsIdentify(t *testing.T) {
	env := testEnv(t, 20)
	for _, name := range Names() {
		s, err := New(name, env)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
		s.Setup()
		s.Maintain(0)
		if s.Worker() == nil {
			t.Errorf("%s: nil Worker", name)
		}
	}
}

func TestNewErrors(t *testing.T) {
	env := testEnv(t, 10)
	if _, err := New("warp", env); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Errorf("New(warp) err = %v, want unknown-scheme error naming it", err)
	}
	if _, err := New("flood", Env{}); err == nil {
		t.Error("New(flood) over empty Env succeeded")
	}
	// card and bordercast additionally require the protocol instance.
	bare := Env{Net: env.Net, Dir: env.Dir}
	for _, name := range []string{"card", "bordercast"} {
		if _, err := New(name, bare); err == nil || !strings.Contains(err.Error(), "Prot") {
			t.Errorf("New(%s) without Prot err = %v, want needs-Prot error", name, err)
		}
	}
}
