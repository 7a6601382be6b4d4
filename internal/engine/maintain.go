package engine

import (
	"card/internal/neighborhood"
	"card/internal/par"
)

// The round fan-out parallelizes the write-side hot loop — network-wide
// contact selection and maintenance — with the same recipe BatchQuery uses
// for the read side (2), plus two ingredients of its own:
//
//  1. with more than one worker, views are warmed before the fan-out — a
//     round reads every node's view, so provider reads are pure hits;
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
// selection rounds: 0 (the default) uses up to GOMAXPROCS workers, n > 0
// caps the pool at n (1 runs the round inline, in id order). Results,
// statistics and message accounting are bit-identical at every setting.
// Not safe to call concurrently with Advance.
func (e *Engine) SetMaintainWorkers(n int) { e.maintWorkers = n }

// runRound runs one selection (sel) or maintenance round and returns the
// number of contacts selection added. Under DirtyMaintenance the round is
// restricted to the dirty list (ascending ids, see dirty.go) unless a full
// round is owed; otherwise it covers every node. It takes one RNG round id
// and shards the per-node calls across the per-worker Maintainers — one
// worker runs them inline in index order — then flushes the Maintainers
// serially in worker order after the join: the shared recorder sees one
// deterministic sum per category, whatever the interleaving was. Views
// are warmed first only when more than one worker reads them.
//
// The Maintainers are cached across rounds — the RNG is reseeded per
// (node, round) and Flush zeroes the tallies, so reuse avoids reallocating
// O(N) scratch every ValidatePeriod — and the pool grows here, before the
// fan-out starts (growing it inside workers would race).
func (e *Engine) runRound(sel bool, now float64) (added int) {
	all := !e.dirtyMode || e.dirtyAll
	var list []NodeID
	n := e.net.N()
	if !all {
		list = e.dirtyRoundList()
		n = len(list)
	}
	e.lastRound = n
	workers := e.maintWorkers
	if workers <= 0 {
		workers = par.Limit()
	}
	workers = min(workers, n)
	if workers > 1 {
		neighborhood.Warm(e.nb)
	}
	round := e.prot.NextRound()
	for len(e.maintPool) < workers {
		e.maintPool = append(e.maintPool, e.prot.NewMaintainer())
		e.roundSums = append(e.roundSums, 0)
	}
	ms, sums := e.maintPool[:workers], e.roundSums[:workers]
	par.WorkersN(workers, n, func(worker, i int) {
		u := NodeID(i)
		if !all {
			u = list[i]
		}
		if sel {
			sums[worker] += ms[worker].SelectNode(u, now, round)
		} else {
			ms[worker].MaintainNode(u, now, round)
		}
	})
	for w, m := range ms {
		m.Flush()
		added += sums[w]
		sums[w] = 0
	}
	// Only the tables the round processed can have changed.
	if !all {
		e.noteRoundTables(list)
	} else if e.dirtyMode {
		e.noteAllTables()
	}
	return added
}

// maintainRound runs one maintenance round and, under DirtyMaintenance,
// consumes the dirty list.
func (e *Engine) maintainRound(now float64) {
	e.runRound(false, now)
	if e.dirtyMode {
		e.dirtyAll = false
		e.dirtyAcc.Clear()
	}
}

// selectRound runs one selection round and returns the number of contacts
// added. Under DirtyMaintenance it reads the dirty list without consuming
// it — only a maintenance round clears the accumulator (selection is the
// lighter half of the round pair and may be invoked out of schedule, e.g.
// the t=0 warm-up).
func (e *Engine) selectRound(now float64) int { return e.runRound(true, now) }
