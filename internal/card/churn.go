package card

import (
	"slices"

	"card/internal/bitset"
)

// ExpireNodes processes a batch of nodes leaving the network (churn): each
// departed node's own contact table is cleared — a device that powers off
// forgets its soft state — and every other table drops its entries whose
// contact *is* a departed node. Entries whose stored path merely passes
// through one are left alone: their owners cannot know an intermediate hop
// vanished until the next validation walk fails, which is exactly how the
// paper's maintenance handles broken paths.
//
// The owners-of index names every table that lists a departed node, so
// the batch (the engine hands over every node that went down at a refresh
// at once) visits only those tables: O(entries dropped · NoC), not a sweep
// of the field. Each visited table is filtered in place, selection order
// kept. All expired entries are counted in Stats.ContactsExpired.
//
// ExpireNodes mutates multiple tables and must only be called from the
// serial engine loop (between rounds), never concurrently with a round
// fan-out or batch queries.
//
// The return value lists every owner whose table shrank (the departed
// nodes themselves included — their tables were cleared), ascending and
// duplicate-free: exactly the nodes whose below-NoC status may have
// flipped, which the engine's deficit list consumes. The slice aliases
// protocol scratch and is valid until the next ExpireNodes call.
func (p *Protocol) ExpireNodes(vs []NodeID) (affected []NodeID) {
	if len(vs) == 0 {
		return nil
	}
	// Membership scratch, lazily allocated and cleared by removing only
	// the bits this batch set.
	if p.departed == nil {
		p.departed = bitset.New(p.net.N())
	}
	p.tableGen++
	cand := p.affected[:0]
	for _, v := range vs {
		p.departed.Add(int(v))
		cand = append(append(cand, v), p.heldBy[v]...)
		p.stats.ContactsExpired += int64(p.clearTable(v))
	}
	// The index's inner order depends on flush order; sorting is what keeps
	// the visit order, and so every output, independent of it.
	slices.Sort(cand)
	cand = slices.Compact(cand)
	for _, u := range cand {
		t := &p.tables[u]
		for j := 0; j < t.Len(); {
			if p.departed.Contains(int(t.at(j).ID)) {
				t.removeAt(j)
				p.stats.ContactsExpired++
				continue
			}
			j++
		}
	}
	// Every entry naming a departed node is gone: its own owners' were
	// released by clearTable, the rest were filtered out above.
	for _, v := range vs {
		p.departed.Remove(int(v))
		p.heldBy[v] = p.heldBy[v][:0]
	}
	p.affected = cand
	return cand
}

// ResetNode empties node u's contact table (releasing its entries from
// the owners-of index) without touching other tables: a churned node is
// readmitted cold and re-selects contacts at the next round. With the
// engine's churn wiring the table is normally already empty (ExpireNodes
// cleared it on departure); the reset is the defensive half of the
// contract for callers driving churn by hand. Counted expiries only cover
// entries actually dropped.
//
// Like ExpireNodes, ResetNode is serial-only.
func (p *Protocol) ResetNode(u NodeID) {
	p.tableGen++
	p.stats.ContactsExpired += int64(p.clearTable(u))
}
