package manet

import (
	"slices"
	"testing"

	"card/internal/geom"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

// snapshotMatchesFreshBuild compares the network's current snapshot — which
// its builder reached through however many incremental updates — with a
// from-scratch topology.Build of the same positions, link model and down
// mask: out-lists, in-lists, link count and directedness. topology's own
// tests tie Build to the naive all-pairs oracle.
func snapshotMatchesFreshBuild(t *testing.T, n *Network) {
	t.Helper()
	pos := make([]geom.Point, n.N())
	down := make([]bool, n.N())
	for u := range pos {
		pos[u], down[u] = n.Position(NodeID(u)), n.Down(NodeID(u))
	}
	want, got := topology.Build(pos, n.Area(), n.LinkModel(), down), n.Graph()
	if got.Directed() != want.Directed() || got.Directed() != n.Directed() {
		t.Fatalf("t=%v: directed: graph %v, fresh build %v, network %v",
			n.Now(), got.Directed(), want.Directed(), n.Directed())
	}
	if got.Links() != want.Links() {
		t.Fatalf("t=%v: links = %d, fresh build has %d", n.Now(), got.Links(), want.Links())
	}
	for u := 0; u < n.N(); u++ {
		id := NodeID(u)
		if !slices.Equal(got.Neighbors(id), want.Neighbors(id)) {
			t.Fatalf("t=%v: node %d out-list %v, fresh build %v", n.Now(), u, got.Neighbors(id), want.Neighbors(id))
		}
		if !slices.Equal(got.InNeighbors(id), want.InNeighbors(id)) {
			t.Fatalf("t=%v: node %d in-list %v, fresh build %v", n.Now(), u, got.InNeighbors(id), want.InNeighbors(id))
		}
	}
}

// scanOnly hides a model's Stepper side, leaving the plain Model contract:
// the network then has no moved list to hand over, and the builder compares
// every position itself.
type scanOnly struct{ mobility.Model }

// TestSnapshotsMatchFreshBuild drives both of the builder's candidate
// sources through the network, each with everything that can change a link
// at once — movement, churn, per-node ranges and a partition schedule — and
// demands at every refresh the snapshot a fresh build gives. Random
// waypoint is a mobility.Stepper, so its refreshes hand the builder a dirty
// list; the same model behind scanOnly has the builder compare all
// positions, with the long pauses keeping most refreshes incremental; and
// under Gauss–Markov every node moves every refresh, which is the
// comparing source's full-rebuild side.
func TestSnapshotsMatchFreshBuild(t *testing.T) {
	const n = 150
	pausing := mobility.RWPConfig{MinSpeed: 5, MaxSpeed: 15, Pause: 20}
	for _, tc := range []struct {
		name        string
		lazy        bool // a mobility.Stepper: refreshes hand over a dirty list
		incremental bool // some refreshes must be incremental updates
		newModel    func(rng *xrand.Rand) (mobility.Model, error)
	}{
		{"rwp-dirty-list", true, true, func(rng *xrand.Rand) (mobility.Model, error) {
			return mobility.NewRandomWaypoint(n, area, pausing, rng)
		}},
		{"rwp-scan", false, true, func(rng *xrand.Rand) (mobility.Model, error) {
			m, err := mobility.NewRandomWaypoint(n, area, pausing, rng)
			return scanOnly{m}, err
		}},
		{"gauss-markov-scan", false, false, func(rng *xrand.Rand) (mobility.Model, error) {
			return mobility.NewGaussMarkov(n, area, mobility.GMConfig{MeanSpeed: 10, Alpha: 0.75, SpeedSigma: 2}, rng)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(5)
			m, err := tc.newModel(rng.Derive(0))
			if err != nil {
				t.Fatal(err)
			}
			if _, lazy := m.(mobility.Stepper); lazy != tc.lazy {
				t.Fatalf("model no longer exercises the candidate source the case is named for (Stepper = %v)", lazy)
			}
			churn, err := NewChurn(n, ChurnConfig{MeanUp: 20, MeanDown: 5}, rng.Derive(3))
			if err != nil {
				t.Fatal(err)
			}
			ranges := make([]float64, n)
			rr := rng.Derive(5)
			for i := range ranges {
				ranges[i] = 60 * (1 + 0.4*rr.Range(-1, 1))
			}
			net := NewNetwork(m, Config{
				Link:      topology.LinkModel{Uniform: 60, Ranges: ranges},
				Churn:     churn,
				Partition: PartitionConfig{Period: 15, Duration: 6},
			}, rng.Derive(1))
			snapshotMatchesFreshBuild(t, net)
			const refreshes = 160
			partitioned, flips, incremental, incrementalCut := 0, 0, 0, 0
			for step := 1; step <= refreshes; step++ {
				net.RefreshAt(float64(step) * 0.5)
				snapshotMatchesFreshBuild(t, net)
				if net.lm.BarrierActive {
					partitioned++
				}
				flips += len(net.ChurnedDown()) + len(net.ChurnedUp())
				if changed, all := net.AdjacencyChanged(); !all && len(changed) > 0 {
					incremental++
					if net.lm.BarrierActive {
						incrementalCut++
					}
				}
			}
			if partitioned == 0 || partitioned == refreshes || flips == 0 {
				t.Fatalf("trace too tame to mean anything: %d/%d partitioned refreshes, %d churn flips", partitioned, refreshes, flips)
			}
			if tc.incremental && (incremental < refreshes/4 || incrementalCut == 0) {
				t.Fatalf("only %d/%d refreshes were incremental updates that changed links (%d under an active partition); the case checks little beyond full rebuilds",
					incremental, refreshes, incrementalCut)
			}
		})
	}
}
