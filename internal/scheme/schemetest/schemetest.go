// Package schemetest is the cross-scheme conformance bench: every
// registered DiscoveryScheme — built-in or external — must pass
// RunConformance, which pins the invariants the engine, workload and
// sweep layers rely on:
//
//   - an unknown resource is never Found;
//   - a self-held resource resolves for free: Holder == src, zero
//     messages, zero hops, nothing on the recorder;
//   - outcomes are invariant under holder insertion order: Found, cost
//     and route length for every scheme, and the answering holder too for
//     every scheme that breaks distance ties by id;
//   - identical runs are bit-identical, results and recorder totals both;
//   - serial and sharded execution agree: under mobility and churn, the
//     per-query outcome stream, the message totals and the workload
//     report are bit-identical at every GOMAXPROCS.
//
// The harness builds deterministic environments (Env) so scheme authors
// can reuse it for their own tests beyond the conformance set.
package schemetest

import (
	"reflect"
	"runtime"
	"testing"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/manet"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/workload"
	"card/internal/xrand"
)

// Env builds a deterministic static scenario: n nodes placed uniformly in
// a 710 m × 710 m area, 50 m radio range, a warmed CARD protocol
// (R 3, NoC 5) and an empty directory. Equal seeds give identical
// environments, bit for bit.
func Env(tb testing.TB, seed uint64, n int) scheme.Env {
	tb.Helper()
	return build(tb, engine.NetworkConfig{Nodes: n, Width: 710, Height: 710, TxRange: 50, Seed: seed})
}

// LossyEnv builds a deterministic static scenario over a directed, lossy
// link graph: the same 710 m × 710 m field as Env, but per-node radio
// ranges spread ±50% around 50 m (so the unit-disk graph is directed and
// some links are asymmetric) and a 15% per-hop loss rate with a 2-retry
// budget. Equal seeds give identical environments, bit for bit.
func LossyEnv(tb testing.TB, seed uint64, n int) scheme.Env {
	tb.Helper()
	return build(tb, engine.NetworkConfig{
		Nodes: n, Width: 710, Height: 710, TxRange: 50, Seed: seed,
		RangeSpread: 0.5, Loss: 0.15, LossRetries: 2,
	})
}

// build is both fixtures: one engine over nc with contacts selected, and
// an empty directory.
func build(tb testing.TB, nc engine.NetworkConfig) scheme.Env {
	tb.Helper()
	e, err := engine.New(nc, card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2})
	if err != nil {
		tb.Fatal(err)
	}
	e.SelectContacts()
	return scheme.Env{Net: e.Network(), Prot: e.Protocol(), Dir: resource.NewDirectory(nc.Nodes), Seed: nc.Seed}
}

// New builds the named scheme over env, failing the test on error.
func New(tb testing.TB, name string, env scheme.Env) scheme.DiscoveryScheme {
	tb.Helper()
	s, err := scheme.New(name, env)
	if err != nil {
		tb.Fatalf("scheme.New(%q): %v", name, err)
	}
	return s
}

// RunConformance runs the full conformance bench against the named
// scheme. Call it once per registered scheme.
func RunConformance(t *testing.T, name string) {
	t.Run("unknown-never-found", func(t *testing.T) { UnknownNeverFound(t, name) })
	t.Run("self-held-free", func(t *testing.T) { SelfHeldFree(t, name) })
	t.Run("holder-order-invariant", func(t *testing.T) { HolderOrderInvariant(t, name) })
	t.Run("deterministic", func(t *testing.T) { Deterministic(t, name) })
	t.Run("parallel-equivalent", func(t *testing.T) { ParallelEquivalent(t, name) })
	t.Run("directed-lossy", func(t *testing.T) { DirectedLossy(t, name) })
}

// UnknownNeverFound pins that a query for a resource with no holders (or
// one that was never placed at all) never reports Found, from any source.
func UnknownNeverFound(t *testing.T, name string) {
	env := Env(t, 11, 60)
	for i := 0; i < 5; i++ {
		env.Dir.Place(resource.ID(i), scheme.NodeID(i*7))
	}
	s := New(t, name, env)
	s.Setup()
	w := s.Worker()
	for src := 0; src < env.Net.N(); src += 5 {
		if r := w.Discover(scheme.NodeID(src), resource.ID(9999)); r.Found {
			t.Fatalf("%s: unknown resource Found from node %d: %+v", name, src, r)
		}
	}
	w.Flush()
}

// SelfHeldFree pins that querying a resource the source itself holds
// costs nothing: Found with Holder == src, zero messages, zero hops, and
// no transmissions reach the recorder.
func SelfHeldFree(t *testing.T, name string) {
	env := Env(t, 12, 60)
	holders := []scheme.NodeID{3, 17, 41}
	for _, h := range holders {
		env.Dir.Place(7, h)
	}
	s := New(t, name, env)
	s.Setup() // rendezvous registration may charge; snapshot after it
	w := s.Worker()
	before := env.Net.Totals()
	for _, src := range holders {
		r := w.Discover(src, 7)
		if !r.Found || r.Holder != src || r.Messages != 0 || r.PathHops != 0 {
			t.Fatalf("%s: self-held query from %d not free: %+v", name, src, r)
		}
	}
	w.Flush()
	if d := env.Net.Totals().DiffSince(before); d.Total() != 0 {
		t.Fatalf("%s: self-held queries charged the recorder: %v", name, d)
	}
}

// HolderOrderInvariant pins that discovery outcomes do not depend on the
// order holders were placed in the directory: Found, Messages and PathHops
// for every scheme, and Holder as well — the whole Result — for the
// schemes that address a holder by a placement-free rule (nearest, ties to
// the lowest id). The two flooding baselines address nobody: the nearest
// holder answers and equidistant ones tie to the first placed, at equal
// cost.
func HolderOrderInvariant(t *testing.T, name string) {
	orders := [][]scheme.NodeID{{40, 5, 23}, {23, 40, 5}, {5, 23, 40}}
	var ref []resource.Result
	for oi, order := range orders {
		env := Env(t, 13, 60)
		for _, h := range order {
			env.Dir.Place(3, h)
		}
		s := New(t, name, env)
		s.Setup()
		w := s.Worker()
		got := make([]resource.Result, 0, env.Net.N())
		for src := 0; src < env.Net.N(); src++ {
			r := w.Discover(scheme.NodeID(src), 3)
			if name == "flood" || name == "ring" {
				r.Holder = 0
			}
			got = append(got, r)
		}
		w.Flush()
		if oi == 0 {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: outcome depends on holder order: src %d, order %v: %+v vs %+v",
					name, i, order, got[i], ref[i])
			}
		}
	}
}

// Deterministic pins that two runs built from the same seed produce
// bit-identical outcome streams and recorder totals.
func Deterministic(t *testing.T, name string) {
	run := func() ([]resource.Result, manet.Counters) {
		env := Env(t, 14, 80)
		place := xrand.New(99)
		for id := 0; id < 12; id++ {
			env.Dir.PlaceReplicas(resource.ID(id), 2, place)
		}
		s := New(t, name, env)
		s.Setup()
		s.Maintain(1)
		w := s.Worker()
		draws := xrand.New(7)
		out := make([]resource.Result, 0, 64)
		for q := 0; q < 64; q++ {
			src := scheme.NodeID(draws.Intn(env.Net.N()))
			id := resource.ID(draws.Intn(12))
			out = append(out, w.Discover(src, id))
		}
		w.Flush()
		return out, env.Net.Totals()
	}
	r1, t1 := run()
	r2, t2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("%s: outcome streams differ between identical runs", name)
	}
	if t1 != t2 {
		t.Fatalf("%s: recorder totals differ between identical runs: %v vs %v", name, t1, t2)
	}
}

// DirectedLossy runs the scheme over a directed, lossy fixture graph
// (heterogeneous ±50% radio ranges, 15% hop loss with 2 retries — see
// LossyEnv) and pins the invariants the richer link layer must not
// weaken: a self-held resource stays free (delivery risk only applies to
// transmitted hops), an unplaced resource is never Found, the query batch
// still resolves something (the fixture is not vacuously disconnected),
// and two identical runs produce bit-identical outcome streams and
// recorder totals — loss outcomes are a pure function of the epoch and
// edge, never of scheduling or wall clock.
func DirectedLossy(t *testing.T, name string) {
	if !t.Run("deterministic", func(t *testing.T) {
		run := func() ([]resource.Result, manet.Counters) {
			env := LossyEnv(t, 21, 80)
			place := xrand.New(99)
			for id := 0; id < 12; id++ {
				env.Dir.PlaceReplicas(resource.ID(id), 2, place)
			}
			s := New(t, name, env)
			s.Setup()
			s.Maintain(1)
			w := s.Worker()
			draws := xrand.New(7)
			out := make([]resource.Result, 0, 64)
			for q := 0; q < 64; q++ {
				src := scheme.NodeID(draws.Intn(env.Net.N()))
				id := resource.ID(draws.Intn(12))
				out = append(out, w.Discover(src, id))
			}
			w.Flush()
			return out, env.Net.Totals()
		}
		r1, t1 := run()
		r2, t2 := run()
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s: outcome streams differ between identical lossy runs", name)
		}
		if t1 != t2 {
			t.Fatalf("%s: recorder totals differ between identical lossy runs: %v vs %v", name, t1, t2)
		}
		found := 0
		for _, r := range r1 {
			if r.Found {
				found++
			}
		}
		if found == 0 {
			t.Fatalf("%s: no query resolved on the lossy fixture — the check is vacuous", name)
		}
	}) {
		return
	}
	t.Run("self-held-free", func(t *testing.T) {
		env := LossyEnv(t, 22, 60)
		holders := []scheme.NodeID{3, 17, 41}
		for _, h := range holders {
			env.Dir.Place(7, h)
		}
		s := New(t, name, env)
		s.Setup()
		w := s.Worker()
		before := env.Net.Totals()
		for _, src := range holders {
			r := w.Discover(src, 7)
			if !r.Found || r.Holder != src || r.Messages != 0 || r.PathHops != 0 {
				t.Fatalf("%s: self-held query from %d not free under loss: %+v", name, src, r)
			}
		}
		w.Flush()
		if d := env.Net.Totals().DiffSince(before); d.Total() != 0 {
			t.Fatalf("%s: self-held queries charged the recorder under loss: %v", name, d)
		}
	})
	t.Run("unknown-never-found", func(t *testing.T) {
		env := LossyEnv(t, 23, 60)
		for i := 0; i < 5; i++ {
			env.Dir.Place(resource.ID(i), scheme.NodeID(i*7))
		}
		s := New(t, name, env)
		s.Setup()
		w := s.Worker()
		for src := 0; src < env.Net.N(); src += 5 {
			if r := w.Discover(scheme.NodeID(src), resource.ID(9999)); r.Found {
				t.Fatalf("%s: unknown resource Found on lossy fixture from node %d: %+v", name, src, r)
			}
		}
		w.Flush()
	})
}

// ParallelEquivalent pins the sharding contract end to end: a sustained
// workload over a mobile, churning network must produce a bit-identical
// per-query outcome stream, message totals and report at GOMAXPROCS 2, 3
// and 4 as at GOMAXPROCS 1, the serial reference; 3 splits each tick's
// batch unevenly.
func ParallelEquivalent(t *testing.T, name string) {
	run := func(procs int) (*workload.Report, engine.MessageCounts) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e, err := engine.New(engine.NetworkConfig{
			Nodes: 250, Width: 600, Height: 600, TxRange: 55,
			Mobility: engine.RandomWaypoint, MaxSpeed: 12, Pause: 1,
			ChurnMeanUp: 30, ChurnMeanDown: 6,
			Seed: 31,
		}, card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2})
		if err != nil {
			t.Fatal(err)
		}
		e.SelectContacts()
		rep, err := e.RunWorkload(workload.Config{
			QPS: 30, Duration: 5, Tick: 0.5,
			Resources: 24, Replicas: 2, ZipfS: 0.9, Window: 64,
			Scheme: name, Seed: 5, KeepOutcomes: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, e.Messages()
	}
	base, baseMsgs := run(1)
	for _, procs := range []int{2, 3, 4} {
		rep, msgs := run(procs)
		if msgs != baseMsgs {
			t.Errorf("%s/procs%d: message totals diverge:\n  serial %+v\n  got    %+v",
				name, procs, baseMsgs, msgs)
		}
		if !reflect.DeepEqual(rep.Outcomes, base.Outcomes) {
			t.Errorf("%s/procs%d: outcome stream diverges from serial run", name, procs)
		}
		if !reflect.DeepEqual(rep, base) {
			t.Errorf("%s/procs%d: report diverges from serial run:\n  serial %+v\n  got    %+v",
				name, procs, base, rep)
		}
	}
}
