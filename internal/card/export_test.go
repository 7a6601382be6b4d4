package card

import (
	"fmt"
	"slices"

	"card/internal/resource"
)

// reverseIndex is the owners-of index recomputed from the tables: for
// every contact, its owners ascending, once per entry.
func reverseIndex(p *Protocol) [][]NodeID {
	idx := make([][]NodeID, len(p.tables))
	for u := range p.tables {
		for _, c := range p.tables[u].Contacts() {
			idx[c.ID] = append(idx[c.ID], NodeID(u))
		}
	}
	return idx
}

// HeldByMismatch reports the first node whose owners-of index entry
// differs, compared as a sorted multiset, from the reverse of the tables.
// Exported for the engine-driven test in package card_test.
func HeldByMismatch(p *Protocol) error {
	for v, want := range reverseIndex(p) {
		got := slices.Sorted(slices.Values(p.heldBy[v]))
		if !slices.Equal(got, want) {
			return fmt.Errorf("node %d: index holds owners %v, tables %v", v, got, want)
		}
	}
	return nil
}

// serialMaintainer is p's own Maintainer, the one MaintainAll runs on,
// allocated on first use.
func serialMaintainer(p *Protocol) *Maintainer {
	if p.maint == nil {
		p.maint = p.NewMaintainer()
	}
	return p.maint
}

// selectAll runs one selection round for every node, in id order: the
// serial reference the engine's sharded rounds are bit-identical to.
func selectAll(p *Protocol, now float64) int {
	m, round, total := serialMaintainer(p), p.NextRound(), 0
	for i := 0; i < p.net.N(); i++ {
		total += m.SelectNode(NodeID(i), now, round)
	}
	m.Flush()
	return total
}

// query runs one destination search from u for target on a fresh Querier
// and flushes its tallies to the recorder at once.
func query(p *Protocol, u, target NodeID) resource.Result {
	q := p.NewQuerier()
	res := q.lookup(u, target)
	q.Flush()
	return res
}

// lookup is Resolve over the one-element set {target}.
func (q *Querier) lookup(u, target NodeID) resource.Result {
	return q.Resolve(u, []NodeID{target})
}
