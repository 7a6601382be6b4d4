package card

import "card/internal/bitset"

// Reachability returns the percentage of live network nodes reachable from
// u with the current contact tables and a depth-D search: the union of u's
// own neighborhood with the neighborhoods of every contact in the first D
// levels of u's contact tree (§III.B, "Reachability").
//
// Under node churn the denominator is the up population, not the nominal
// network size: a down node is not discoverable by any mechanism, so
// counting it as "unreached" would deflate reachability by the churn duty
// cycle rather than measure the contact architecture. A down u reaches
// nothing and reports 0. Without churn this is the original N-denominator
// definition.
func (p *Protocol) Reachability(u NodeID, depth int) float64 {
	up := p.net.UpCount()
	if up == 0 || p.net.Down(u) {
		return 0
	}
	set := p.reachableSet(u, depth)
	return 100 * float64(set.Count()) / float64(up)
}

// reachableSet returns the set of nodes counted by Reachability.
func (p *Protocol) reachableSet(u NodeID, depth int) *bitset.Set {
	n := p.net.N()
	set := bitset.New(n)
	for _, w := range p.nb.Members(u) {
		set.Add(int(w))
	}
	seen := bitset.New(n)
	seen.Add(int(u))
	frontier := []NodeID{u}
	for level := 1; level <= depth && len(frontier) > 0; level++ {
		var next []NodeID
		for _, v := range frontier {
			for _, c := range p.tables[v].Contacts() {
				if seen.Contains(int(c.ID)) {
					continue
				}
				seen.Add(int(c.ID))
				for _, w := range p.nb.Members(c.ID) {
					set.Add(int(w))
				}
				next = append(next, c.ID)
			}
		}
		frontier = next
	}
	return set
}

// MeanReachability returns the average Reachability over the up nodes.
// Down nodes hold no protocol state (their tables were expired on
// departure), so averaging them in would systematically understate what
// the live population can discover; without churn every node is up and
// this is the plain all-nodes mean.
func (p *Protocol) MeanReachability(depth int) float64 {
	up := p.net.UpCount()
	if up == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < p.net.N(); i++ {
		sum += p.Reachability(NodeID(i), depth) // 0 for a down node
	}
	return sum / float64(up)
}
