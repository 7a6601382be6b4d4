package card_test

import (
	"fmt"
	"testing"

	"card/internal/card"
	"card/internal/engine"
)

// TestHeldByMatchesTables drives a churned mobile engine — full and dirty
// rounds, one worker and four — and requires the owners-of index to equal
// the reverse of the contact tables after every refresh-only tick and
// every tick that ends in a round. Under -race it also proves the round
// fan-out writes nothing shared: the index is only touched at Flush.
func TestHeldByMatchesTables(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("dirty=%v/workers=%d", dirty, workers)
			t.Run(name, func(t *testing.T) {
				e, err := engine.New(engine.NetworkConfig{
					Nodes: 300, Width: 710, Height: 710, TxRange: 50, Seed: 7,
					Mobility: engine.RandomWaypoint, MinSpeed: 1, MaxSpeed: 15, Pause: 3,
					ChurnMeanUp: 12, ChurnMeanDown: 5, DirtyMaintenance: dirty,
				}, card.Config{R: 3, MaxContactDist: 16, NoC: 5, ValidatePeriod: 2})
				if err != nil {
					t.Fatal(err)
				}
				e.SetMaintainWorkers(workers)
				e.SelectContacts()
				p := e.Protocol()
				if err := card.HeldByMismatch(p); err != nil {
					t.Fatalf("after selection: %v", err)
				}
				for tick := 1; tick <= 24; tick++ {
					e.Advance(0.5) // three refresh-only ticks, then a round
					if err := card.HeldByMismatch(p); err != nil {
						t.Fatalf("t=%v: %v", e.Now(), err)
					}
				}
				if e.Stats().ContactsExpired == 0 || e.Rounds() != 6 {
					t.Fatalf("%d rounds, %d expiries: the run did not exercise churn", e.Rounds(), e.Stats().ContactsExpired)
				}
			})
		}
	}
}
