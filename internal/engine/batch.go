package engine

import (
	proto "card/internal/card"
	"card/internal/neighborhood"
	"card/internal/par"
)

// Pair is one (source, destination) query assignment.
type Pair struct {
	Src, Dst NodeID
}

// BatchQuery runs one CARD destination search per pair and returns the
// results indexed like pairs. Queries are fanned across up to GOMAXPROCS
// workers; because each query is a pure read of the protocol state between
// maintenance rounds, the results — and the message accounting — are
// identical to running e.Query over the pairs sequentially, regardless of
// scheduling. Determinism contract: equal engine state and equal pairs
// give equal results, with any number of workers.
//
// BatchQuery must not run concurrently with Advance, SelectContacts or
// Maintain (the engine is externally synchronized, like the network it
// drives); concurrent BatchQuery calls on one engine are likewise not
// allowed, since workers flush tallies into the shared recorder at the
// end. Swap in a manet.AtomicCounters recorder if live concurrent
// accounting across engines is needed.
func (e *Engine) BatchQuery(pairs []Pair) []proto.QueryResult {
	out := make([]proto.QueryResult, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	neighborhood.Warm(e.nb)
	// One Querier per worker: private visited scratch, private tallies.
	// The worker-count bound is read once and passed explicitly so a
	// concurrent GOMAXPROCS change cannot desync ids from the slice.
	limit := par.Limit()
	queriers := make([]*proto.Querier, limit)
	par.WorkersN(limit, len(pairs), func(worker, i int) {
		q := queriers[worker]
		if q == nil {
			q = e.prot.NewQuerier()
			queriers[worker] = q
		}
		out[i] = q.Query(pairs[i].Src, pairs[i].Dst)
	})
	// Serial flush after the join: totals land in the recorder in one
	// deterministic sum, whatever the interleaving was.
	for _, q := range queriers {
		if q != nil {
			q.Flush()
		}
	}
	return out
}
