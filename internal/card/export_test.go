package card

import (
	"fmt"
	"slices"
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
