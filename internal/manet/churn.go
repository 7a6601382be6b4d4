package manet

import (
	"cmp"
	"fmt"
	"slices"

	"card/internal/mobility"
	"card/internal/xrand"
)

// ChurnConfig parameterizes a node up/down schedule: nodes alternate
// between up-times and down-times drawn from exponential distributions.
// The paper's evaluation keeps the population fixed; churn models the
// Rendezvous-Regions-style regime where devices arrive, sleep, crash and
// return, which stresses contact state far harder than link churn alone.
type ChurnConfig struct {
	// MeanUp is the mean up-time in seconds (at least 1 ms).
	MeanUp float64
	// MeanDown is the mean down-time in seconds (at least 1 ms).
	MeanDown float64
}

// minChurnMean is the shortest mean up- or down-time a schedule accepts,
// in seconds. Every flip is one renewal draw, so a refresh Δt after the
// last costs about Δt/mean draws per node: at the floor a two-second run
// is already ~2000 draws per node, and at 1e-9 s a refresh never ends.
const minChurnMean = 1e-3

// Validate checks that both means are at least the floor.
func (c ChurnConfig) Validate() error {
	for _, m := range []struct {
		name string
		v    float64
	}{{"MeanUp", c.MeanUp}, {"MeanDown", c.MeanDown}} {
		if !(m.v >= minChurnMean) { // also rejects NaN
			return fmt.Errorf("manet: churn %s %g s is below the %g s floor: every flip is one renewal draw, so a refresh costs elapsed/mean draws per node",
				m.name, m.v, minChurnMean)
		}
	}
	return nil
}

// Churn is a deterministic per-node up/down schedule. Every node owns a
// derived RNG stream, so its flip sequence is a pure function of the
// construction seed and the node id — independent of how (or whether) any
// other node is sampled, which is what keeps churned runs reproducible
// and lets the engine's parallel rounds stay bit-identical to serial
// execution. All nodes start up at t = 0.
//
// Nodes wait in a wake queue keyed by their next flip time, so sampling
// the schedule at a refresh touches only the nodes whose flip is due:
// O(flips · log N), not O(N).
type Churn struct {
	cfg   ChurnConfig
	rngs  []*xrand.Rand      // per-node renewal streams
	down  []bool             // current state; the Network's exclusion mask
	queue mobility.WakeQueue // every node's next flip time
	due   []mobility.Wake    // flips scratch
}

// NewChurn creates a schedule for n nodes. The rng is consumed only for
// stream derivation; the caller may keep using it.
func NewChurn(n int, cfg ChurnConfig, rng *xrand.Rand) (*Churn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Churn{cfg: cfg, rngs: make([]*xrand.Rand, n), down: make([]bool, n), queue: make(mobility.WakeQueue, n)}
	for i := range c.rngs {
		c.rngs[i] = rng.Derive(uint64(i))
		c.queue[i] = mobility.Wake{At: cfg.MeanUp * c.rngs[i].ExpFloat64(), ID: int32(i)}
	}
	c.queue.Init()
	return c, nil
}

// N returns the number of nodes the schedule covers.
func (c *Churn) N() int { return len(c.rngs) }

// flips advances every node whose next flip is due at t through its
// renewal process and appends those that end up in a different state to
// down or up, ascending. t must be non-decreasing across calls. A node
// that flips an even number of times in one call is in neither list.
func (c *Churn) flips(t float64, down, up []NodeID) ([]NodeID, []NodeID) {
	due := c.due[:0]
	for len(c.queue) > 0 && c.queue[0].At <= t {
		due = append(due, c.queue.Pop())
	}
	slices.SortFunc(due, func(a, b mobility.Wake) int { return cmp.Compare(a.ID, b.ID) })
	for _, w := range due {
		was := c.down[w.ID]
		for t >= w.At {
			c.down[w.ID] = !c.down[w.ID]
			if c.down[w.ID] {
				w.At += c.cfg.MeanDown * c.rngs[w.ID].ExpFloat64()
			} else {
				w.At += c.cfg.MeanUp * c.rngs[w.ID].ExpFloat64()
			}
		}
		c.queue.Push(w)
		switch {
		case c.down[w.ID] == was:
		case was:
			up = append(up, w.ID)
		default:
			down = append(down, w.ID)
		}
	}
	c.due = due
	return down, up
}
