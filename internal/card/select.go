package card

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
