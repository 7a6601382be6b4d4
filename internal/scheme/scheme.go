// Package scheme turns resource discovery into a pluggable layer: every
// mechanism the repo can compare — CARD's contact architecture, the
// flooding and expanding-ring baselines, ZRP bordercasting, Rendezvous
// Regions — implements one DiscoveryScheme interface, and the engine,
// workload, sweep and experiment layers consume the interface instead of
// hardwired per-scheme arms. Adding a factory to the builtins table makes
// a new scheme appear in every sweep grid, the sustained-traffic
// experiment and `cardsim -scheme` for free, and subjects it to the
// cross-scheme conformance suite (schemetest).
//
// # Accounting and the sharding contract
//
// Batch is the one lookup fan-out: workload ticks, sweep cells and
// Engine.BatchQuery all run their lookups through it. Each fan-out worker
// owns a Worker with private message tallies (a manet.Counters) and
// scratch; Discover never mutates shared scheme state, and Flush adds the
// local tallies to the network's shared recorder — called serially, in
// worker order, after the batch joins. Because per-query results are pure
// functions of the snapshot and category sums are commutative, the
// outcome stream and the recorder totals are bit-identical between serial
// and sharded execution at any GOMAXPROCS, for every scheme. Setup and
// Maintain run on the serial driver loop between ticks and account
// directly on the shared recorder.
package scheme

import (
	"cmp"
	"fmt"
	"sort"

	"card/internal/card"
	"card/internal/manet"
	"card/internal/par"
	"card/internal/resource"
	"card/internal/topology"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Env is everything a scheme instance binds to: one simulation's network
// substrate, CARD protocol instance (for schemes that ride the contact or
// neighborhood state) and resource directory. A scheme instance lives for
// one run; build a fresh one per simulation.
type Env struct {
	// Net is the network substrate (required).
	Net *manet.Network
	// Prot is the CARD protocol instance. Required by the card and
	// bordercast schemes (bordercast reuses the R-hop neighborhood as its
	// zone); the flooding and rendezvous schemes ignore it.
	Prot *card.Protocol
	// Dir is the resource directory queries resolve against (required).
	Dir *resource.Directory
	// Seed decorrelates any scheme-internal randomness from the driver's
	// streams. The built-in schemes are deterministic and ignore it.
	Seed uint64
	// RegionsPerSide overrides the rendezvous region grid edge (K regions
	// per side, K² regions). 0 sizes the grid from the deployment area and
	// radio range.
	RegionsPerSide int
}

// DiscoveryScheme is one constructed discovery mechanism. Setup and
// Maintain mutate scheme state and account on the shared recorder; they
// run on the serial driver loop. Worker hands out per-worker query state
// for the sharded fan-out.
type DiscoveryScheme interface {
	// Name returns the registered scheme name.
	Name() string
	// Setup runs one-time registration after the directory is placed
	// (rendezvous registration floods; a no-op for stateless schemes).
	Setup()
	// Maintain runs the scheme's per-tick maintenance at simulation time
	// now — re-registration after region exit or churn. The driver calls
	// it after advancing the clock, before the tick's queries.
	Maintain(now float64)
	// Worker returns a new query worker with private accounting. Workers
	// are valid for the lifetime of the scheme; reuse them across ticks.
	Worker() Worker
}

// Worker is the per-worker query surface: Discover resolves one query,
// tallying messages locally; Flush adds the local tallies to the shared
// recorder. Call Flush serially, in worker order, after the batch joins.
type Worker interface {
	Discover(src NodeID, id resource.ID) resource.Result
	Flush()
}

// Batch is a scheme with its fan-out workers, each created on first use
// and kept, with its scratch, for the batch's lifetime.
type Batch struct {
	DiscoveryScheme
	net     *manet.Network
	workers []Worker
}

// NewBatch builds the named scheme over env, runs its one-time Setup and
// returns a fan-out at most width workers wide (par.Limit() for the whole
// machine, 1 for a serial loop).
func NewBatch(name string, env Env, width int) (*Batch, error) {
	sch, err := New(name, env)
	if err != nil {
		return nil, err
	}
	sch.Setup()
	return &Batch{DiscoveryScheme: sch, net: env.Net, workers: make([]Worker, width)}, nil
}

// Run resolves lookup i — lookup(i) names its source and resource — into
// out[i] for every index of out, against the current snapshot, under the
// sharding contract of the package doc. A lookup from a down source is a
// miss that sends nothing.
func (b *Batch) Run(out []resource.Result, lookup func(i int) (NodeID, resource.ID)) {
	if len(out) == 0 {
		return
	}
	par.WorkersN(len(b.workers), len(out), func(worker, i int) {
		src, id := lookup(i)
		if b.net.Down(src) {
			out[i] = miss(0)
			return
		}
		w := b.workers[worker]
		if w == nil {
			w = b.Worker()
			b.workers[worker] = w
		}
		out[i] = w.Discover(src, id)
	})
	for _, w := range b.workers {
		if w != nil {
			w.Flush()
		}
	}
}

// Factory builds a scheme instance over an environment.
type Factory func(env Env) (DiscoveryScheme, error)

// builtins is the whole registry, fixed at compile time.
var builtins = map[string]Factory{
	"card":       newCard,
	"flood":      newFlood,
	"ring":       newRing,
	"bordercast": newBordercast,
	"rendezvous": newRendezvous,
}

// Names lists the registered scheme names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Known reports whether name resolves to a registered scheme ("" resolves
// to the default, card).
func Known(name string) bool {
	_, ok := builtins[Canon(name)]
	return ok
}

// Canon resolves the empty scheme name to the default, "card".
func Canon(name string) string { return cmp.Or(name, "card") }

// New builds the named scheme over env. The empty name builds the default
// CARD scheme.
func New(name string, env Env) (DiscoveryScheme, error) {
	canon := Canon(name)
	f, ok := builtins[canon]
	if !ok {
		return nil, fmt.Errorf("scheme: unknown scheme %q (have %v)", name, Names())
	}
	if env.Net == nil || env.Dir == nil {
		return nil, fmt.Errorf("scheme %s: Env needs Net and Dir", canon)
	}
	return f(env)
}
