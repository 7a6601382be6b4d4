package card

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/resource"
	"card/internal/topology"
	"card/internal/xrand"
)

// The query path before it was made to read no view and walk each stored
// route once per snapshot, kept as the oracle the production Querier is
// compared against: every table lookup is a Contains/Dist probe of a
// materialized view, and every visit to a contact re-walks its route hop
// by hop.

// refQuerier is the view-based, memo-free Querier.
type refQuerier struct {
	p        *Protocol
	visited  []uint64
	visitGen uint64

	query, reply, retry int64
}

func newRefQuerier(p *Protocol) *refQuerier {
	return &refQuerier{p: p, visited: make([]uint64, p.net.N())}
}

func (q *refQuerier) lookup(u, target NodeID) resource.Result {
	p := q.p
	if u == target {
		return resource.Result{Found: true, Depth: 0, PathHops: 0, Holder: target}
	}
	if p.nb.Contains(u, target) {
		return resource.Result{Found: true, Depth: 0, PathHops: p.nb.Dist(u, target), Holder: target}
	}
	before := q.query + q.reply
	for depth := 1; depth <= p.cfg.Depth; depth++ {
		q.visitGen++
		q.visited[u] = q.visitGen
		if hops, ok := q.dsq(u, target, depth); ok {
			return resource.Result{Found: true, Depth: depth, Messages: q.query + q.reply - before, PathHops: hops, Holder: target}
		}
	}
	return resource.Result{Found: false, Messages: q.query + q.reply - before, PathHops: -1}
}

func (q *refQuerier) dsq(v, target NodeID, depth int) (int, bool) {
	p := q.p
	cs := p.tables[v].Contacts()
	for i := range cs {
		c := &cs[i]
		if q.visited[c.ID] == q.visitGen {
			continue
		}
		q.visited[c.ID] = q.visitGen
		if !q.walkPath(c.Path) {
			continue
		}
		if depth == 1 {
			if p.nb.Contains(c.ID, target) {
				q.reply += int64(c.Hops())
				return c.Hops() + p.nb.Dist(c.ID, target), true
			}
			continue
		}
		if sub, found := q.dsq(c.ID, target, depth-1); found {
			q.reply += int64(c.Hops())
			return c.Hops() + sub, true
		}
	}
	return 0, false
}

func (q *refQuerier) walkPath(path []NodeID) bool {
	for i := 0; i+1 < len(path); i++ {
		att, delivered := q.p.net.TryHop(path[i], path[i+1])
		if att > 0 {
			q.query++
			q.retry += int64(att - 1)
		}
		if !delivered {
			return false
		}
	}
	return true
}

// resolveLoop is a lookup for a replicated resource as the scheme adapter
// ran it before the DSQ carried the resource: the source's own table first
// (nearest holder, ties to the lowest id), then one full escalation per
// holder, in the order listed, until one is found. It is the oracle
// Querier.Resolve is bounded by.
func (q *refQuerier) resolveLoop(u NodeID, holders []NodeID) resource.Result {
	best := resource.Result{PathHops: -1}
	for _, h := range holders {
		d := q.p.nb.Dist(u, h)
		if d >= 0 && (!best.Found || d < best.PathHops || (d == best.PathHops && h < best.Holder)) {
			best = resource.Result{Found: true, PathHops: d, Holder: h}
		}
	}
	if best.Found {
		return best
	}
	for _, h := range holders {
		r := q.lookup(u, h)
		best.Messages += r.Messages
		if r.Found {
			r.Messages = best.Messages
			return r
		}
	}
	return best
}

// queryArm is one executor under comparison, with its running
// Query/Reply/Retry tallies.
type queryArm interface {
	lookup(u, target NodeID) resource.Result
	tallies() [3]int64
}

func (q *refQuerier) tallies() [3]int64 { return [3]int64{q.query, q.reply, q.retry} }
func (q *Querier) tallies() [3]int64 {
	return [3]int64{q.pend.Get(manet.CatQuery), q.pend.Get(manet.CatReply), q.pend.Get(manet.CatRetry)}
}

// checkQueriersAgree runs every pair on both executors and compares the
// results and the running tallies after each one.
func checkQueriersAgree(t *testing.T, id string, q, ref queryArm, pairs [][2]NodeID) {
	t.Helper()
	for k, pr := range pairs {
		got, want := q.lookup(pr[0], pr[1]), ref.lookup(pr[0], pr[1])
		if got != want {
			t.Fatalf("%s: query %d (%d→%d) = %+v, reference %+v", id, k, pr[0], pr[1], got, want)
		}
		if q.tallies() != ref.tallies() {
			t.Fatalf("%s: after query %d (%d→%d) query/reply/retry tallies %v, reference %v",
				id, k, pr[0], pr[1], q.tallies(), ref.tallies())
		}
	}
}

func randomPairs(rng *xrand.Rand, n, count int) [][2]NodeID {
	pairs := make([][2]NodeID, count)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	return pairs
}

// queryWorlds are the snapshots the query equivalence runs on: scalar
// links; one-way links with 10 % loss and retries; and a field where about
// one node in ten churned down after selection, so stored routes run
// through dead nodes and tables have holes.
func queryWorlds(t *testing.T, seed uint64, n int) []refWorld {
	t.Helper()
	var ws []refWorld
	for i, prov := range testProviders {
		s := seed + 50*uint64(i)
		rng := xrand.New(s)
		pts := topology.UniformPositions(n, testArea, rng)
		ranges := make([]float64, n)
		for j := range ranges {
			ranges[j] = 65 * (1 + 0.5*rng.Range(-1, 1))
		}
		lossy := manet.NewNetwork(mobility.NewStatic(pts, testArea), manet.Config{
			Link: topology.LinkModel{Uniform: 65, Ranges: ranges},
			Loss: manet.LossConfig{Rate: 0.1, Retries: 2},
		}, xrand.New(s+1000))
		churn, err := manet.NewChurn(n, manet.ChurnConfig{MeanUp: 40, MeanDown: 10}, rng)
		if err != nil {
			t.Fatal(err)
		}
		churned := manet.NewNetwork(mobility.NewStatic(pts, testArea), manet.Config{
			Link: topology.LinkModel{Uniform: 55}, Churn: churn,
		}, xrand.New(s+1000))
		ws = append(ws,
			refWorld{"scalar/" + prov.name, staticNet(s, n, 55), prov.new},
			refWorld{"directed-lossy/" + prov.name, lossy, prov.new},
			refWorld{"churn/" + prov.name, churned, prov.new})
	}
	return ws
}

// TestQueryMatchesViewReference pins the reverse-ball lookups and the walk
// memo against the view-based, memo-free reference: equal results and
// equal tallies query by query, at the production memo size and with the
// memo shrunk to two entries so nearly every walk collides.
func TestQueryMatchesViewReference(t *testing.T) {
	const n, queries = 300, 2000
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 4, Depth: 3, Method: EM}
	for _, w := range queryWorlds(t, 11, n) {
		p, err := New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		selectAll(p, 0)
		if w.net.HasChurn() {
			w.net.RefreshAt(5)
			p.ExpireNodes(w.net.ChurnedDown())
			if w.net.UpCount() == n {
				t.Fatalf("%s: every node is up", w.name)
			}
		}
		pairs := randomPairs(xrand.New(77), n, queries)
		for _, memo := range []int{walkMemoSize, 2} {
			q, ref := p.NewQuerier(), newRefQuerier(p)
			q.memo = make([]walkMemo, memo)
			checkQueriersAgree(t, w.name, q, ref, pairs[:queries/2])
			// A refresh of the static field changes no link but re-draws
			// every loss outcome (TryHop is keyed by epoch).
			w.net.RefreshAt(w.net.Now() + 1)
			checkQueriersAgree(t, w.name, q, ref, pairs[queries/2:])
			if ref.query == 0 || ref.reply == 0 {
				t.Fatalf("%s: the stream never left the neighborhood (query %d, reply %d)", w.name, ref.query, ref.reply)
			}
			if strings.HasPrefix(w.name, "directed-lossy") && ref.retry == 0 {
				t.Fatalf("%s: no retransmission in %d queries", w.name, queries)
			}
		}
	}
}

// TestResolveBoundedByHolderLoop runs Querier.Resolve against the holder
// loop on every query world, for sets of one, two and eight holders. What
// holds per lookup: Found is equal; a source that knows a holder answers
// the same on both sides, for free; one holder is the loop's only
// iteration, so the results are equal field for field; and the query
// transmissions and retries of the one sweep never exceed the loop's — the
// sweep visits contacts in an order no target changes, so it is a prefix of
// the loop's sweep for whichever holder the loop found (same depth or
// shallower, same leaf or an earlier one), and of each of its full sweeps
// when it found none. Replies are bounded over the whole stream only: an
// earlier leaf can sit behind a longer chain than the loop's.
func TestResolveBoundedByHolderLoop(t *testing.T) {
	const n, lookups = 300, 900
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 4, Depth: 3, Method: EM}
	for _, w := range queryWorlds(t, 17, n) {
		p, err := New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		selectAll(p, 0)
		if w.net.HasChurn() {
			w.net.RefreshAt(5)
			p.ExpireNodes(w.net.ChurnedDown())
		}
		q, ref := p.NewQuerier(), newRefQuerier(p)
		rng := xrand.New(78)
		remote, cheaper := 0, 0
		for k := 0; k < lookups; k++ {
			u := NodeID(rng.Intn(n))
			holders := make([]NodeID, []int{1, 2, 8}[k%3])
			for i := range holders {
				holders[i] = NodeID(rng.Intn(n))
			}
			was, refWas := q.tallies(), ref.tallies()
			got, want := q.Resolve(u, holders), ref.resolveLoop(u, holders)
			now, refNow := q.tallies(), ref.tallies()
			id := fmt.Sprintf("%s: lookup %d (%d→%v)", w.name, k, u, holders)
			if got.Found != want.Found {
				t.Fatalf("%s = %+v, the holder loop %+v", id, got, want)
			}
			if (want.Found && want.Depth == 0 || len(holders) == 1) && got != want {
				t.Fatalf("%s = %+v, the holder loop %+v", id, got, want)
			}
			if got.Messages != now[0]-was[0]+now[1]-was[1] {
				t.Fatalf("%s reports %d messages, the tallies moved by %v → %v", id, got.Messages, was, now)
			}
			for _, c := range []int{0, 2} { // query transmissions, retries
				if sweep, loop := now[c]-was[c], refNow[c]-refWas[c]; sweep > loop {
					t.Fatalf("%s: tally %d moved by %d, the holder loop's by %d", id, c, sweep, loop)
				}
			}
			if got.Found && got.Depth > 0 {
				remote++
				if !slices.Contains(holders, got.Holder) {
					t.Fatalf("%s answers with %d, not a holder", id, got.Holder)
				}
				if got.Messages < want.Messages {
					cheaper++
				}
			}
		}
		if sweep, loop := q.tallies(), ref.tallies(); sweep[0]+sweep[1] > loop[0]+loop[1] {
			t.Errorf("%s: query+reply %d over the stream, the holder loop %d", w.name, sweep[0]+sweep[1], loop[0]+loop[1])
		}
		if remote == 0 || cheaper == 0 {
			t.Fatalf("%s: %d lookups answered by a contact, %d below the loop's cost", w.name, remote, cheaper)
		}
	}
}

// TestWalkMemoInvalidation keeps one Querier alive through every event
// that can change what a stored route's walk yields — a refresh without a
// round, rounds without a refresh, churn expiry, a reset — and requires it
// to stay equal to a Querier created after the event, whose memo is empty.
func TestWalkMemoInvalidation(t *testing.T) {
	const n = 250
	net := mobileNet(t, 21, n, 60)
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 4, Depth: 3, Method: EM}
	p := newProtocol(t, net, cfg, 22)
	selectAll(p, 0)
	pairs := randomPairs(xrand.New(23), n, 600)
	old := p.NewQuerier()
	check := func(event string) {
		t.Helper()
		old.Flush()
		fresh := p.NewQuerier()
		checkQueriersAgree(t, event, old, fresh, pairs)
		if fresh.pend.Get(manet.CatQuery) == 0 {
			t.Fatalf("%s: no query left the neighborhood", event)
		}
	}
	check("after selection")
	net.RefreshAt(3) // nodes moved: routes break, no table changed
	check("after RefreshAt without a round")
	p.MaintainAll(3) // routes spliced, contacts dropped and refilled, same epoch
	check("after Maintain without a refresh")
	var owners, contacts []NodeID
	for u := NodeID(0); int(u) < n && len(owners) < 20; u += 7 {
		if cs := p.Table(u).Contacts(); len(cs) > 1 {
			owners = append(owners, u)
			contacts = append(contacts, cs[0].ID) // expiring it shifts the owner's later slots down
		}
	}
	p.ExpireNodes(contacts)
	check("after ExpireNodes")
	for _, u := range owners {
		p.ResetNode(u)
	}
	check("after ResetNode")
	for _, u := range owners {
		selectNode(p, u, 3)
	}
	check("after a selection round without a refresh")
}
