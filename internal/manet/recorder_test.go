package manet

import "testing"

func TestCountersAddTo(t *testing.T) {
	var local Counters
	local.Record(CatCSQ, 3)
	local.Record(CatBacktrack, 5)
	local.Record(CatValidate, 0)

	var sink Counters
	sink.Record(CatCSQ, 1)
	local.AddTo(&sink)
	if got := sink.Get(CatCSQ); got != 4 {
		t.Errorf("CatCSQ = %d, want 4", got)
	}
	if got := sink.Get(CatBacktrack); got != 5 {
		t.Errorf("CatBacktrack = %d, want 5", got)
	}
	if got := sink.Get(CatValidate); got != 0 {
		t.Errorf("CatValidate = %d, want 0", got)
	}
	if got := sink.Total(); got != 9 {
		t.Errorf("Total = %d, want 9", got)
	}
	if got := local.Total(); got != 8 {
		t.Errorf("AddTo changed its source: Total = %d, want 8", got)
	}

	// Flushing several workers' tallies sums exactly, in any order.
	var other Counters
	other.Record(CatCSQ, 2)
	other.Record(CatRetry, 7)
	var ab, ba Counters
	local.AddTo(&ab)
	other.AddTo(&ab)
	other.AddTo(&ba)
	local.AddTo(&ba)
	if ab != ba || ab.Get(CatCSQ) != 5 || ab.Get(CatRetry) != 7 {
		t.Errorf("flush order changed the sum: %v vs %v", ab, ba)
	}
}
