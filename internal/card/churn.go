package card

import "card/internal/bitset"

// ExpireNodes processes a batch of nodes leaving the network (churn): each
// departed node's own contact table is cleared — a device that powers off
// forgets its soft state — and every other table drops its entries whose
// contact *is* a departed node. Entries whose stored path merely passes
// through one are left alone: their owners cannot know an intermediate hop
// vanished until the next validation walk fails, which is exactly how the
// paper's maintenance handles broken paths.
//
// The whole batch costs one pass over the tables (the engine hands over
// every node that went down at a refresh at once), not one per departure.
// All expired entries are counted in Stats.ContactsExpired.
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
	// Membership scratch: a lazily allocated bitset beats the old per-batch
	// map — no allocation per churn event, O(1) probes in the table sweep —
	// and is cleared by removing only the bits this batch set.
	if p.departed == nil {
		p.departed = bitset.New(p.net.N())
	}
	p.affected = p.affected[:0]
	p.tableGen++
	for _, v := range vs {
		p.departed.Add(int(v))
		p.stats.ContactsExpired += int64(p.tables[v].Len())
		p.tables[v].clear()
	}
	for i := range p.tables {
		t := &p.tables[i]
		shrank := p.departed.Contains(i) // cleared above
		for j := 0; j < t.Len(); {
			if p.departed.Contains(int(t.at(j).ID)) {
				t.removeAt(j)
				p.stats.ContactsExpired++
				shrank = true
				continue
			}
			j++
		}
		if shrank {
			p.affected = append(p.affected, NodeID(i))
		}
	}
	for _, v := range vs {
		p.departed.Remove(int(v))
	}
	return p.affected
}

// ResetNode clears node u's contact table without touching other tables:
// a churned node is readmitted cold and re-selects contacts at the next
// round. With the engine's churn wiring the table is normally already
// empty (ExpireNodes cleared it on departure); the reset is the defensive
// half of the contract for callers driving churn by hand. Counted
// expiries only cover entries actually dropped.
//
// Like ExpireNodes, ResetNode is serial-only.
func (p *Protocol) ResetNode(u NodeID) {
	p.tableGen++
	p.stats.ContactsExpired += int64(p.tables[u].Len())
	p.tables[u].clear()
}
