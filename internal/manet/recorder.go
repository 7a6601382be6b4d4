package manet

import "fmt"

// Counters is a per-category transmission tally: the Network's shared
// recorder, and the private tally every parallel executor (card.Querier,
// card.Maintainer, the scheme workers) accumulates into and flushes with
// AddTo. The zero value is ready to use. Not safe for concurrent use.
type Counters struct {
	c [numCategories]int64
}

// Record adds n transmissions of category cat. n may be zero.
func (k *Counters) Record(cat Category, n int64) { k.c[cat] += n }

// Get returns the count for one category.
func (k Counters) Get(cat Category) int64 { return k.c[cat] }

// Sum returns the combined count across the given categories.
func (k Counters) Sum(cats ...Category) int64 {
	var s int64
	for _, c := range cats {
		s += k.c[c]
	}
	return s
}

// Total returns the count across all categories.
func (k Counters) Total() int64 {
	var s int64
	for _, v := range k.c {
		s += v
	}
	return s
}

// AddTo adds k's tallies to r. This is the flush half of the local-tally
// recipe used by the parallel fan-outs (engine.BatchQuery, the maintenance
// pool, the scheme workers): workers accumulate into a private Counters
// while running, then flush serially — in worker order, after the join —
// so the shared recorder sees one deterministic sum per category no matter
// how the work interleaved.
func (k Counters) AddTo(r *Counters) {
	for i, v := range k.c {
		r.c[i] += v
	}
}

// DiffSince returns per-category counts accumulated since the snapshot.
func (k Counters) DiffSince(prev Counters) Counters {
	var d Counters
	for i := range k.c {
		d.c[i] = k.c[i] - prev.c[i]
	}
	return d
}

// Reset zeroes all categories.
func (k *Counters) Reset() { k.c = [numCategories]int64{} }

func (k Counters) String() string {
	s := ""
	for i, v := range k.c {
		if v == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", Category(i), v)
	}
	if s == "" {
		return "(none)"
	}
	return s
}
