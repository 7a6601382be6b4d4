package card

// Maintain runs one contact-maintenance round (§III.C.3) for node u:
//
//  1. each contact is sent a validation message along its stored source
//     route;
//  2. a missing next hop triggers local recovery — the node holding the
//     message looks the missing hop (and then each later path node) up in
//     its own neighborhood table and splices the path;
//  3. contacts whose path cannot be recovered are lost;
//  4. contacts whose validated route — shortened if it was spliced — is
//     shorter than the method's lower bound or longer than r are dropped;
//  5. a table left below NoC triggers new contact selection.
//
// Maintain is the serial entry point: it runs on the protocol's own
// [Maintainer] (consuming one RNG round) and flushes statistics and
// message tallies immediately. For concurrent maintenance rounds, create
// one Maintainer per worker instead — see Maintainer.MaintainNode and the
// engine's round fan-out.
func (p *Protocol) Maintain(u NodeID, now float64) {
	p.maint.MaintainNode(u, now, p.NextRound())
	p.maint.Flush()
}

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
