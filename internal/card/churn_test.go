package card

import (
	"reflect"
	"slices"
	"testing"

	"card/internal/bitset"
	"card/internal/xrand"
)

// sweepExpire is the whole-field sweep ExpireNodes replaced, kept as its
// oracle: clear the departed tables, then filter every table of the field.
// It works on the tables alone and recomputes the index afterwards.
func sweepExpire(p *Protocol, vs []NodeID) (affected []NodeID) {
	if len(vs) == 0 {
		return nil
	}
	departed := bitset.New(p.net.N())
	p.tableGen++
	for _, v := range vs {
		departed.Add(int(v))
		p.stats.ContactsExpired += int64(p.tables[v].Len())
		clear(p.tables[v].Contacts())
		p.tables[v].n = 0
	}
	for i := range p.tables {
		t := &p.tables[i]
		shrank := departed.Contains(i)
		for j := 0; j < t.Len(); {
			if departed.Contains(int(t.at(j).ID)) {
				t.removeAt(j)
				p.stats.ContactsExpired++
				shrank = true
				continue
			}
			j++
		}
		if shrank {
			affected = append(affected, NodeID(i))
		}
	}
	p.heldBy = reverseIndex(p)
	return affected
}

// sweepReset is ResetNode on the oracle's terms.
func sweepReset(p *Protocol, u NodeID) {
	p.tableGen++
	p.stats.ContactsExpired += int64(p.tables[u].Len())
	clear(p.tables[u].Contacts())
	p.tables[u].n = 0
	p.heldBy = reverseIndex(p)
}

// TestExpireMatchesSweep runs the indexed ExpireNodes against the sweep
// it replaced on twin protocols, through random batches that cover every
// shape the index must get right: owners departing together with their
// contacts, a hub held by a dozen owners, ids expired again (and twice in
// one batch), empty batches, ResetNode and selection rounds interleaved,
// and a duplicate entry planted in a table. Tables (ids, routes, order),
// Stats, the affected list and tableGen must stay equal, and the index
// must stay the exact reverse of the tables.
func TestExpireMatchesSweep(t *testing.T) {
	for _, w := range refWorlds(7, 240) {
		cfg := Config{R: 2, MaxContactDist: 9, NoC: 5, Method: EM, MaxFailedWalks: 6}
		a, b := protocolPair(t, w, cfg, 17)
		selectAll(a, 0)
		selectAll(b, 0)
		n := w.net.N()
		rng := xrand.New(23)
		check := func(what string, got, want []NodeID) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s: affected %v, sweep %v", w.name, what, got, want)
			}
			for u := range a.tables {
				if g, s := a.tables[u].Contacts(), b.tables[u].Contacts(); !reflect.DeepEqual(g, s) {
					t.Fatalf("%s %s: node %d table %v, sweep %v", w.name, what, u, g, s)
				}
			}
			if a.Stats() != b.Stats() || a.tableGen != b.tableGen {
				t.Fatalf("%s %s: stats %+v gen %d, sweep %+v gen %d", w.name, what, a.Stats(), a.tableGen, b.Stats(), b.tableGen)
			}
			if err := HeldByMismatch(a); err != nil {
				t.Fatalf("%s %s: %v", w.name, what, err)
			}
		}
		plant := func(u NodeID, c Contact) {
			for _, p := range []*Protocol{a, b} {
				if p.tables[u].Len() == cfg.NoC {
					dropAt(p, u, cfg.NoC-1)
				}
				inject(p, u, c)
			}
		}
		hub := NodeID(rng.Intn(n))
		plantHubAndDuplicate := func() {
			for k := 1; k <= 12; k++ {
				u := NodeID((int(hub) + 7*k) % n)
				plant(u, Contact{ID: hub, Path: []NodeID{u, hub}})
			}
			for u := NodeID(0); int(u) < n; u++ {
				if a.tables[u].Len() > 0 && a.tables[u].at(0).ID != hub {
					c := *a.tables[u].at(0)
					c.Path = slices.Clone(c.Path)
					plant(u, c)
					return
				}
			}
		}
		var gone []NodeID
		expired := 0
		for step := 0; step < 60; step++ {
			var batch []NodeID
			switch step % 6 {
			case 0: // empty batch
			case 1: // an owner departing together with its contacts
				u := NodeID(rng.Intn(n))
				batch = append(batch, u)
				for _, c := range a.tables[u].Contacts() {
					batch = append(batch, c.ID)
				}
			case 2: // ids expired before, one of them twice in the batch
				v := gone[rng.Intn(len(gone))]
				batch = append(batch, v, gone[rng.Intn(len(gone))], v)
			case 3: // the hub, freshly planted
				plantHubAndDuplicate()
				check("planted", nil, nil)
				if len(a.heldBy[hub]) < 10 {
					t.Fatalf("%s: hub %d held by %d owners, want >= 10", w.name, hub, len(a.heldBy[hub]))
				}
				batch = append(batch, hub)
			default:
				for k := 1 + rng.Intn(8); k > 0; k-- {
					batch = append(batch, NodeID(rng.Intn(n)))
				}
			}
			before := a.Stats().ContactsExpired
			got := slices.Clone(a.ExpireNodes(batch))
			check("expire", got, sweepExpire(b, batch))
			expired += int(a.Stats().ContactsExpired - before)
			gone = append(gone, batch...)
			if step%5 == 2 {
				u := NodeID(rng.Intn(n))
				a.ResetNode(u)
				sweepReset(b, u)
				check("reset", nil, nil)
			}
			if step%3 == 2 { // readmit: a round refills every table
				selectAll(a, float64(step))
				selectAll(b, float64(step))
				check("select", nil, nil)
			}
		}
		if expired == 0 {
			t.Fatalf("%s: nothing expired", w.name)
		}
	}
}
