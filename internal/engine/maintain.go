package engine

import (
	proto "card/internal/card"
	"card/internal/neighborhood"
	"card/internal/par"
)

// The round fan-out parallelizes the write-side hot loop — network-wide
// contact selection and maintenance — with the same recipe BatchQuery uses
// for the read side (2), plus two ingredients of its own:
//
//  1. neighborhood views are warmed before the fan-out — a round reads
//     every node's view, so provider reads are pure hits;
//  2. each worker owns a card.Maintainer (private visited/overlap scratch,
//     private RNG, private stats and message tallies), flushed serially in
//     worker order after the join;
//  3. node u draws its round randomness from the counter-based substream
//     (u, round) of the run seed — never from a shared generator — so its
//     coin flips do not depend on which worker runs it or in what order.
//
// Node u's round reads and writes only u's own contact table, so sharding
// nodes across workers is race-free, and (3) makes it bit-identical to the
// serial id-order loop at any GOMAXPROCS. TestMaintainParallelEquivalence
// pins that contract.

// SetMaintainWorkers bounds the worker fan-out of maintenance and
// selection rounds: 0 (the default) uses up to GOMAXPROCS workers, 1
// forces the serial reference path, n > 1 caps the pool at n. Results,
// statistics and message accounting are bit-identical at every setting.
// Not safe to call concurrently with Advance.
func (e *Engine) SetMaintainWorkers(n int) { e.maintWorkers = n }

// roundWorkers resolves the worker bound for a round over n nodes.
func (e *Engine) roundWorkers(n int) int {
	w := e.maintWorkers
	if w <= 0 {
		w = par.Limit()
	}
	if w > n {
		w = n
	}
	return w
}

// workerMaintainers returns the cached per-worker Maintainers, growing
// the pool to the requested bound. Maintainers are reusable across
// rounds: the RNG is reseeded per (node, round) and Flush zeroes the
// tallies, so caching them avoids reallocating O(N) scratch every
// ValidatePeriod. Must be called before the fan-out starts (growing the
// pool inside workers would race).
func (e *Engine) workerMaintainers(workers int) []*proto.Maintainer {
	for len(e.maintPool) < workers {
		e.maintPool = append(e.maintPool, e.prot.NewMaintainer())
	}
	return e.maintPool[:workers]
}

// maintainRound runs one maintenance round, sharded across the worker
// pool (or serially when the bound says so). Under DirtyMaintenance the
// round is restricted to the dirty list (see dirty.go), which it
// consumes; otherwise it covers every node.
func (e *Engine) maintainRound(now float64) {
	n := e.net.N()
	if e.dirtyMode && !e.dirtyAll {
		list := e.dirtyRoundList()
		e.lastRound = len(list)
		e.maintainList(list, now)
		e.noteRoundTables(list) // only the listed tables could have changed
		e.dirtyAcc.Clear()
		return
	}
	e.lastRound = n
	if e.dirtyMode {
		e.dirtyAll = false
		e.dirtyAcc.Clear()
		defer e.noteAllTables()
	}
	workers := e.roundWorkers(n)
	if workers <= 1 {
		e.prot.MaintainAll(now)
		return
	}
	neighborhood.Warm(e.nb)
	round := e.prot.NextRound()
	ms := e.workerMaintainers(workers)
	par.WorkersN(workers, n, func(worker, i int) {
		ms[worker].MaintainNode(NodeID(i), now, round)
	})
	flushAll(ms)
}

// maintainList runs one maintenance round over just the listed nodes
// (ascending ids), sharded like a full round and bit-identical to the
// serial proto.MaintainSet loop.
func (e *Engine) maintainList(list []NodeID, now float64) {
	workers := e.roundWorkers(len(list))
	if workers <= 1 {
		e.prot.MaintainSet(list, now)
		return
	}
	neighborhood.Warm(e.nb)
	round := e.prot.NextRound()
	ms := e.workerMaintainers(workers)
	par.WorkersN(workers, len(list), func(worker, i int) {
		ms[worker].MaintainNode(list[i], now, round)
	})
	flushAll(ms)
}

// selectRound runs one selection round, sharded like maintainRound, and
// returns the number of contacts added. Under DirtyMaintenance it reads
// the dirty list without consuming it — only a maintenance round clears
// the accumulator (selection is the lighter half of the round pair and
// may be invoked out of schedule, e.g. the t=0 warm-up).
func (e *Engine) selectRound(now float64) int {
	n := e.net.N()
	if e.dirtyMode && !e.dirtyAll {
		list := e.dirtyRoundList()
		e.lastRound = len(list)
		added := e.selectList(list, now)
		e.noteRoundTables(list)
		return added
	}
	e.lastRound = n
	if e.dirtyMode {
		defer e.noteAllTables()
	}
	workers := e.roundWorkers(n)
	if workers <= 1 {
		return e.prot.SelectAll(now)
	}
	neighborhood.Warm(e.nb)
	round := e.prot.NextRound()
	ms := e.workerMaintainers(workers)
	added := make([]int, n)
	par.WorkersN(workers, n, func(worker, i int) {
		added[i] = ms[worker].SelectNode(NodeID(i), now, round)
	})
	flushAll(ms)
	total := 0
	for _, a := range added {
		total += a
	}
	return total
}

// selectList runs one selection round over just the listed nodes
// (ascending ids), sharded like a full round.
func (e *Engine) selectList(list []NodeID, now float64) int {
	workers := e.roundWorkers(len(list))
	if workers <= 1 {
		return e.prot.SelectSet(list, now)
	}
	neighborhood.Warm(e.nb)
	round := e.prot.NextRound()
	ms := e.workerMaintainers(workers)
	added := make([]int, len(list))
	par.WorkersN(workers, len(list), func(worker, i int) {
		added[i] = ms[worker].SelectNode(list[i], now, round)
	})
	flushAll(ms)
	total := 0
	for _, a := range added {
		total += a
	}
	return total
}

// flushAll hands the workers' local stats and message tallies to the
// protocol serially, in worker order: the shared recorder sees one
// deterministic sum per category, whatever the interleaving was.
func flushAll(ms []*proto.Maintainer) {
	for _, m := range ms {
		m.Flush()
	}
}
