package manet

import (
	"sync"
	"testing"

	"card/internal/geom"
)

func TestAtomicCountersConcurrent(t *testing.T) {
	a := NewAtomicCounters()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				a.Record(CatQuery, 2)
				a.Record(CatReply, 1)
				a.Record(CatCSQ, 0) // zero adds must be no-ops
			}
		}()
	}
	wg.Wait()
	k := a.Totals()
	if got := k.Get(CatQuery); got != 2*workers*perWorker {
		t.Errorf("CatQuery = %d, want %d", got, 2*workers*perWorker)
	}
	if got := k.Get(CatReply); got != workers*perWorker {
		t.Errorf("CatReply = %d, want %d", got, workers*perWorker)
	}
	if got := k.Get(CatCSQ); got != 0 {
		t.Errorf("CatCSQ = %d, want 0", got)
	}
	a.Reset()
	if a.Totals().Total() != 0 {
		t.Error("Reset did not zero the recorder")
	}
}

func TestCountersAddTo(t *testing.T) {
	var local Counters
	local.Add(CatCSQ, 3)
	local.Add(CatBacktrack, 5)
	local.Add(CatValidate, 0) // zero categories must not Record

	var sink Counters
	sink.Add(CatCSQ, 1)
	local.AddTo(&sink)
	if got := sink.Get(CatCSQ); got != 4 {
		t.Errorf("CatCSQ = %d, want 4", got)
	}
	if got := sink.Get(CatBacktrack); got != 5 {
		t.Errorf("CatBacktrack = %d, want 5", got)
	}
	if got := sink.Total(); got != 9 {
		t.Errorf("Total = %d, want 9", got)
	}

	// Flushing the same tallies from several "workers" into an atomic sink
	// sums exactly, in any order.
	a := NewAtomicCounters()
	local.AddTo(a)
	local.AddTo(a)
	if got := a.Totals().Get(CatCSQ); got != 6 {
		t.Errorf("atomic CatCSQ = %d, want 6", got)
	}
}

func TestSetRecorderSwaps(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}}
	n := staticNet(t, pts, 15)
	n.SendHop(CatQuery)
	a := NewAtomicCounters()
	n.SetRecorder(a)
	n.SendHops(CatQuery, 3)
	if got := n.Totals().Get(CatQuery); got != 3 {
		t.Errorf("after swap Totals = %d, want 3 (old tallies stay behind)", got)
	}
	if n.Recorder() != Recorder(a) {
		t.Error("Recorder() did not return the swapped recorder")
	}
	defer func() {
		if recover() == nil {
			t.Error("nil SetRecorder did not panic")
		}
	}()
	n.SetRecorder(nil)
}
