package engine

import "math/bits"

// Dirty-set maintenance (NetworkConfig.DirtyMaintenance): instead of
// re-running selection and maintenance for every node every round, the
// engine tracks which nodes a round could actually affect and restricts
// the round to them.
//
// # The invariant
//
// Call a node u clean for a round when, since the last maintenance round,
// no refresh placed u within max(R, MaxContactDist) hops (on that
// refresh's new snapshot) of a node whose adjacency list changed, and u's
// table holds NoC contacts. For a clean node the round is provably a
// no-op:
//
//   - Every stored source route of u is intact in the current snapshot.
//     Induction over refreshes: suppose u's path p₀…p_k (k ≤ r hops) is
//     intact before refresh j and some link is absent after it. Take the
//     first broken link (p_a, p_{a+1}) in the new snapshot: the prefix
//     p₀…p_a survives, so dist_new(u, p_a) ≤ a ≤ r-1 — and p_a's
//     adjacency list changed at j, so the r-expansion of refresh j's diff
//     reaches u, contradicting cleanliness. An intact path validates to
//     itself (no recovery, no re-splice — and only a spliced route is
//     ever shortened — so the same length and the same bound check it
//     already passed), so maintenance rules 1–4 change nothing.
//   - Rule 5 (refill) is a no-op at NoC contacts, and selection rounds
//     skip full tables outright.
//
// The below-NoC half of the round list needs no diff tracking: the
// deficit bitset (see the deficit invariant below) holds churn expiry
// victims, cold readmissions, and nodes whose earlier walks failed and that
// retry with fresh randomness every round (the paper's "lost opportunities"
// — these must keep retrying even when nothing moved nearby).
//
// What a dirty round deliberately does NOT reproduce from a full round:
// the CatValidate traffic and LastValidated refresh of clean nodes'
// trivially-successful validation walks. That traffic is the O(N·NoC·r)
// hops per round a mostly-static 100k network would spend confirming
// nothing changed — skipping it is the optimization. On rounds where
// every node is dirty the two regimes are bit-identical, messages
// included (TestDirtyMatchesFullWhenAllDirty pins this).
//
// # Determinism
//
// The round list is ascending in node id (built by one id-order scan),
// each restricted round consumes exactly one RNG round id, and each node
// draws from its own (node, round) substream — so dirty rounds are
// bit-identical serial vs sharded at any worker count, exactly like full
// rounds. The neighborhood views retained across refreshes are
// bit-identical to freshly computed ones (see neighborhood.Table), so query
// results and walk randomness cannot diverge either.

// noteTopologyChanges folds the refresh's adjacency diff into the dirty
// accumulator and retains the unaffected neighborhood views. Runs on the serial
// engine loop right after RefreshAt, before any view is read.
func (e *Engine) noteTopologyChanges() {
	changed, all := e.net.AdjacencyChanged()
	if all {
		// Full rebuild (first build or mass movement): every node is dirty
		// and the epoch bump wipes the view table on its own.
		e.dirtyAll = true
		return
	}
	if e.dirtyAll {
		// Already fully dirty; let the view table wipe at its next read.
		return
	}
	if len(changed) == 0 {
		e.views.Retain(nil) // advance the epoch keeping every view
		return
	}
	dirty, retain := e.expandChanges(changed)
	for _, v := range dirty {
		e.dirtyAcc.Add(int(v))
	}
	e.views.Retain(retain)
}

// expandChanges runs one multi-source BFS on the current snapshot from
// the adjacency-changed seeds out to max(R, MaxContactDist) hops. It
// returns the full expansion (the nodes to dirty — every stored path
// that could have broken has its owner here, per the package invariant)
// and its ≤R-hop prefix (the nodes whose R-ball may differ, i.e. the
// views to drop). Both slices alias engine scratch, valid until
// the next call.
func (e *Engine) expandChanges(changed []NodeID) (dirty, retain []NodeID) {
	g := e.net.Graph()
	e.dirtyGen++
	gen := e.dirtyGen
	q := e.dirtyQueue[:0]
	for _, c := range changed {
		if e.dirtyStamp[c] != gen {
			e.dirtyStamp[c] = gen
			q = append(q, c)
		}
	}
	maxHops := e.cfg.MaxContactDist
	if e.cfg.R > maxHops {
		maxHops = e.cfg.R
	}
	retainLen := len(q)
	directed := g.Directed()
	head, tail := 0, len(q)
	for d := 1; d <= maxHops; d++ {
		for ; head < tail; head++ {
			for _, y := range g.Neighbors(q[head]) {
				if e.dirtyStamp[y] != gen {
					e.dirtyStamp[y] = gen
					q = append(q, y)
				}
			}
			if directed {
				// Asymmetric links break the invariant's symmetry argument:
				// "u reaches the broken hop's endpoint p_a in ≤ r-1 out-hops"
				// means p_a reaches u over *in*-edges, so the expansion must
				// traverse the union of out- and in-adjacency to cover every
				// affected path owner. On scalar graphs in == out and this
				// loop vanishes.
				for _, y := range g.InNeighbors(q[head]) {
					if e.dirtyStamp[y] != gen {
						e.dirtyStamp[y] = gen
						q = append(q, y)
					}
				}
			}
		}
		tail = len(q)
		if d == e.cfg.R {
			retainLen = len(q)
		}
	}
	e.dirtyQueue = q
	return q, q[:retainLen]
}

// dirtyRoundList builds the ascending-id list of nodes the next
// restricted round must process: accumulated dirty nodes plus every table
// below NoC. The below-NoC half is the incrementally maintained deficit
// bitset (see below), so building the list is a word-level OR of two
// bitsets plus one append per listed node — O(N/64 + |list|), never an
// O(N) table-length scan. Iterating set bits ascending reproduces the old
// scan's id order exactly, and the deficit invariant makes the contents
// bit-identical to it.
func (e *Engine) dirtyRoundList() []NodeID {
	list := e.roundList[:0]
	e.roundSet.CopyFrom(e.dirtyAcc)
	e.roundSet.UnionWith(e.deficit)
	for wi, w := range e.roundSet.Words() {
		base := wi * 64
		for w != 0 {
			list = append(list, NodeID(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	e.roundList = list
	return list
}

// The deficit invariant: e.deficit == {u : Table(u).Len() < NoC} whenever
// a round list is built. Table lengths change at exactly three kinds of
// points, each hooked:
//
//   - rounds (selection refills, maintenance drops/refills) mutate only
//     the tables of the nodes they process — noteRoundTables re-derives
//     membership for that list right after the round joins;
//   - churn expiry (ExpireNodes) clears departed tables and drops their
//     entries from other tables — it reports every shrunk owner, and a
//     shrunk table can only enter the deficit, never leave it;
//   - churn readmission (ResetNode) empties one table — always deficit.
//
// All three run on the serial engine loop, so the bitset needs no locks.
// At construction every table is empty, so the set starts full — which is
// also what makes the t=0 SelectContacts round cover all N nodes, exactly
// like the old scan.

// noteRoundTables re-derives deficit membership for the nodes a round
// just processed (the only tables it can have touched).
func (e *Engine) noteRoundTables(list []NodeID) {
	noc := e.cfg.NoC
	for _, u := range list {
		if e.prot.Table(u).Len() < noc {
			e.deficit.Add(int(u))
		} else {
			e.deficit.Remove(int(u))
		}
	}
}

// noteAllTables is noteRoundTables for a full round (every table).
func (e *Engine) noteAllTables() {
	n := e.net.N()
	noc := e.cfg.NoC
	for i := 0; i < n; i++ {
		if e.prot.Table(NodeID(i)).Len() < noc {
			e.deficit.Add(i)
		} else {
			e.deficit.Remove(i)
		}
	}
}

// LastRoundNodes reports how many nodes the most recent maintenance or
// selection round actually processed: the dirty-list length under
// DirtyMaintenance, the full network size otherwise. The dirty-vs-full
// regression test uses it to prove its scenario keeps every node dirty.
func (e *Engine) LastRoundNodes() int { return e.lastRound }
