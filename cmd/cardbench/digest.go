package main

import (
	"fmt"
	"math"

	"card/internal/engine"
	"card/internal/manet"
	"card/internal/workload"
)

// categories lists every recorder category in declaration order.
var categories = []manet.Category{
	manet.CatDSDV, manet.CatCSQ, manet.CatBacktrack, manet.CatValidate, manet.CatRecovery,
	manet.CatQuery, manet.CatReply, manet.CatRegister, manet.CatRetry,
}

// fnv1a is a 64-bit FNV-1a hash fed whole words: the digest covers
// millions of path entries at 100k nodes, so no per-value allocation.
type fnv1a uint64

func newFNV() fnv1a { return 14695981039346656037 }

func (h *fnv1a) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 1099511628211
		v >>= 8
	}
	*h = fnv1a(x)
}

func (h *fnv1a) flag(b bool) {
	if b {
		h.word(1)
	} else {
		h.word(0)
	}
}

// stateDigest hashes everything a run's behaviour shows up in: every
// contact table (ids, stored paths, timestamps), the protocol statistics,
// the recorder totals and the per-query outcome stream. Two runs with
// equal digests simulated the same thing; a simulator-only speed-up must
// leave it unchanged.
func stateDigest(e *engine.Engine, outs []workload.Outcome) uint64 {
	h := newFNV()
	prot := e.Protocol()
	for u := 0; u < e.Nodes(); u++ {
		t := prot.Table(engine.NodeID(u))
		h.word(uint64(t.Len()))
		for _, c := range t.Contacts() {
			h.word(uint64(c.ID))
			h.word(uint64(len(c.Path)))
			for _, v := range c.Path {
				h.word(uint64(v))
			}
			h.word(math.Float64bits(c.SelectedAt))
			h.word(math.Float64bits(c.LastValidated))
		}
	}
	s := e.Stats()
	for _, v := range []int64{
		s.CSQLaunched, s.CSQSucceeded, s.ContactsSelected, s.ContactsLost,
		s.Recoveries, s.RecoveryFailures, s.BoundDrops, s.ContactsExpired,
	} {
		h.word(uint64(v))
	}
	k := e.Network().Totals()
	for _, c := range categories {
		h.word(uint64(k.Get(c)))
	}
	for _, o := range outs {
		h.word(math.Float64bits(o.T))
		h.word(uint64(o.Src))
		h.word(uint64(o.Resource))
		h.flag(o.SrcDown)
		h.flag(o.Found)
		h.word(uint64(o.Messages))
		h.word(uint64(int64(o.Hops)))
	}
	return uint64(h)
}

// checkTables verifies the two table invariants this benchmark relies on:
// no table holds more than NoC contacts, and every stored path runs from
// its owner to its contact. (The full invariant oracle is a ROADMAP item
// of its own.) It returns a description of the first violation.
func checkTables(e *engine.Engine) error {
	prot := e.Protocol()
	noc := e.Config().NoC
	for u := 0; u < e.Nodes(); u++ {
		t := prot.Table(engine.NodeID(u))
		if t.Len() > noc {
			return fmt.Errorf("node %d holds %d contacts, NoC is %d", u, t.Len(), noc)
		}
		for _, c := range t.Contacts() {
			if len(c.Path) < 2 || c.Path[0] != engine.NodeID(u) || c.Path[len(c.Path)-1] != c.ID {
				return fmt.Errorf("node %d contact %d: stored path %v does not run owner→contact", u, c.ID, c.Path)
			}
		}
	}
	return nil
}

// badOutcomes counts outcomes that contradict themselves: a dropped
// arrival that still searched, a hit without a route, a miss with one, or
// negative traffic. These are the benchmark's failed operations.
func badOutcomes(outs []workload.Outcome) int {
	bad := 0
	for _, o := range outs {
		switch {
		case o.Messages < 0,
			o.SrcDown && (o.Found || o.Messages != 0),
			o.Found && o.Hops < 0,
			!o.Found && o.Hops != -1:
			bad++
		}
	}
	return bad
}

// queryTraffic sums per-query messages over the executed outcomes.
func queryTraffic(outs []workload.Outcome) (msgs int64, executed int) {
	for _, o := range outs {
		if !o.SrcDown {
			msgs += o.Messages
			executed++
		}
	}
	return msgs, executed
}
