package resource

import (
	"testing"

	"card/internal/xrand"
)

func TestDirectoryPlacement(t *testing.T) {
	d := NewDirectory(100)
	d.Place(1, 10)
	d.Place(1, 20)
	d.Place(1, 10) // duplicate ignored
	d.Place(2, 10)
	if got := d.Holders(1); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("Holders(1) = %v", got)
	}
	if got := d.Holders(2); len(got) != 1 || got[0] != 10 {
		t.Errorf("Holders(2) = %v", got)
	}
	if d.Resources() != 2 {
		t.Errorf("Resources = %d", d.Resources())
	}
}

func TestPlaceReplicasDistinct(t *testing.T) {
	d := NewDirectory(50)
	d.PlaceReplicas(5, 10, xrand.New(3))
	hs := d.Holders(5)
	if len(hs) != 10 {
		t.Fatalf("placed %d replicas, want 10", len(hs))
	}
	seen := map[NodeID]bool{}
	for _, h := range hs {
		if seen[h] {
			t.Fatal("duplicate holder from PlaceReplicas")
		}
		seen[h] = true
	}
	// Clamps to network size.
	d2 := NewDirectory(5)
	d2.PlaceReplicas(1, 99, xrand.New(4))
	if len(d2.Holders(1)) != 5 {
		t.Errorf("over-replication not clamped: %d", len(d2.Holders(1)))
	}
}

// TestPlaceReplicasScratchRestored pins the partial Fisher–Yates
// bookkeeping: the identity scratch is restored after every call, so a
// placement depends only on the rng state, not on placement history.
func TestPlaceReplicasScratchRestored(t *testing.T) {
	fresh := NewDirectory(200)
	fresh.PlaceReplicas(1, 7, xrand.New(9))
	reused := NewDirectory(200)
	reused.PlaceReplicas(50, 23, xrand.New(1)) // dirty the scratch first
	reused.PlaceReplicas(51, 200, xrand.New(2))
	reused.PlaceReplicas(1, 7, xrand.New(9))
	a, b := fresh.Holders(1), reused.Holders(1)
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("holder counts = %d, %d, want 7", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement depends on history: %v vs %v", a, b)
		}
	}
}

// BenchmarkPlaceReplicas measures placing k replicas into an n-node
// directory — the allocation hot spot the partial Fisher–Yates draw fixes
// (the old full Perm(n) cost O(n) time and memory per resource).
func BenchmarkPlaceReplicas(b *testing.B) {
	const n, k = 10000, 8
	d := NewDirectory(n)
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PlaceReplicas(ID(i), k, rng)
	}
}
