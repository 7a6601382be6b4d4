package engine

import (
	proto "card/internal/card"
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
// allowed, since they share the engine's per-worker Queriers and flush
// tallies into the shared recorder at the end.
func (e *Engine) BatchQuery(pairs []Pair) []proto.QueryResult {
	out := make([]proto.QueryResult, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	// One Querier per worker: private scratch, private tallies, and a walk
	// memo that outlives the call — so they are kept on the engine like the
	// Maintainers, and the pool grows here, before the fan-out (growing it
	// inside workers would race).
	workers := min(par.Limit(), len(pairs))
	e.querier(workers - 1)
	qs := e.queryPool[:workers]
	par.WorkersN(workers, len(pairs), func(worker, i int) {
		out[i] = qs[worker].Query(pairs[i].Src, pairs[i].Dst)
	})
	// Serial flush after the join: totals land in the recorder in one
	// deterministic sum, whatever the interleaving was.
	for _, q := range qs {
		q.Flush()
	}
	return out
}

// querier returns worker w's Querier, growing the pool up to it.
func (e *Engine) querier(w int) *proto.Querier {
	for len(e.queryPool) <= w {
		e.queryPool = append(e.queryPool, e.prot.NewQuerier())
	}
	return e.queryPool[w]
}
