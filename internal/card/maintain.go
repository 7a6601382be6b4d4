package card

// MaintainAll runs one maintenance round for every node, in id order. All
// nodes share the round's RNG round id: node u draws from the substream
// (u, round), so the engine's sharded rounds are bit-identical to this
// serial loop.
func (p *Protocol) MaintainAll(now float64) {
	round := p.NextRound()
	for i := 0; i < p.net.N(); i++ {
		p.maint.MaintainNode(NodeID(i), now, round)
	}
	p.maint.Flush()
}
