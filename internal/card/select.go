package card

// SelectContacts runs the contact-selection procedure of §III.C.1 for node
// u at simulation time now: while the table holds fewer than NoC contacts,
// send a Contact Selection Query (CSQ) through each edge node, one at a
// time. It returns the number of contacts added.
//
// SelectContacts is the serial entry point: it runs on the protocol's own
// [Maintainer] (consuming one RNG round) and flushes statistics and
// message tallies immediately. For concurrent selection rounds, create one
// Maintainer per worker instead — see Maintainer.SelectNode and the
// engine's round fan-out.
func (p *Protocol) SelectContacts(u NodeID, now float64) int {
	added := p.maint.SelectNode(u, now, p.NextRound())
	p.maint.Flush()
	return added
}

// SelectAll runs one selection round for every node, in id order. All
// nodes share the round's RNG round id: node u draws from the substream
// (u, round), which is what makes the engine's sharded rounds bit-identical
// to this serial loop.
func (p *Protocol) SelectAll(now float64) int {
	round := p.NextRound()
	total := 0
	for i := 0; i < p.net.N(); i++ {
		total += p.maint.SelectNode(NodeID(i), now, round)
	}
	p.maint.Flush()
	return total
}

// acceptProb evaluates P = (d-lo)/(r-lo) clamped to [0,1]. When the band is
// degenerate (r <= lo, e.g. r = 2R under eq. 2), acceptance collapses to
// "only at d >= r", the limit the formula approaches.
func acceptProb(d, lo, r int) float64 {
	if r <= lo {
		if d >= r {
			return 1
		}
		return 0
	}
	pr := float64(d-lo) / float64(r-lo)
	if pr < 0 {
		return 0
	}
	if pr > 1 {
		return 1
	}
	return pr
}
