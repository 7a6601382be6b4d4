package topology

import (
	"slices"
	"testing"

	"card/internal/geom"
)

// script hands out the fuzz input one byte at a time (zeros once it runs
// dry, which also ends the step loop).
type script struct{ data []byte }

func (s *script) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// FuzzBuilderMatchesNaive decodes the input into a small world — up to 64
// nodes on integer coordinates (so distances land exactly on a range often),
// one of the four link-model shapes — and a script of moves, teleports,
// up/down flips and barrier toggles. Two builders follow the script, one
// comparing every position itself and one fed a dirty list padded with
// unchanged nodes and duplicates. After every step both must equal the
// naive oracle (out- and in-adjacency, link count), and Changed must be
// exact: duplicate-free, and listing a node iff one of its lists differs
// from the previous snapshot.
func FuzzBuilderMatchesNaive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 40, 10, 10, 30, 10, 50, 10, 70, 10, 90, 10, 110, 10, 130, 10, 150, 10, // uniform: a chain
		2, 0, 3, 5, 251, 1, 6, 200, 200}) // move node 3, teleport node 6
	f.Add([]byte{15, 1, 20, 128, 30, 120, 40, 136, 50, 100, 60, 140, 70, 90, 80, // ranges
		3, 2, 4, 2, 4, 2, 9, 1, 2, 2, 7, 9, 4, 1, 2, 4, 1, 1, 0, 2, 3, 3})
	// Ranges + barrier, four nodes, 0 and 1 linked across the barrier at
	// x=128. Incremental updates while the partition holds: node 0 drifts,
	// node 1 goes down and comes back — the cut has to hold in the out-scan
	// and the in-scan alike.
	f.Add([]byte{3, 3, 22, 22, 22, 22, 22, 120, 100, 136, 100, 100, 100, 200, 200,
		1, 0, 3, 1, // partition
		1, 0, 0, 18, 16, 1, // node 0 drifts 2 m
		1, 1, 2, 1, // node 1 down
		1, 1, 2, 0, 0, // node 1 up, listed three times
		1, 0, 3, 1, // heal
		1, 1, 0, 10, 16, 1}) // node 1 drifts across the (inactive) barrier
	f.Add([]byte{63, 2, 90, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, // uniform + barrier, everyone piled up
		7, 2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 6, 3, 2, 0, 2, 0, 1, 9, 77, 77, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &script{data}
		n := 1 + s.next()%64
		shape := s.next() % 4
		area := geom.Rect{W: 256, H: 256}
		lm := LinkModel{Uniform: float64(8 + s.next()%64)}
		if shape&1 != 0 {
			lm.Ranges = make([]float64, n)
			for i := range lm.Ranges {
				lm.Ranges[i] = float64(8 + s.next()%64)
			}
		}
		if shape&2 != 0 {
			lm.BarrierX = area.W / 2
		}
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: float64(s.next()), Y: float64(s.next())}
		}
		down := make([]bool, n)
		scan, listed := NewBuilder(n, area, lm), NewBuilder(n, area, lm)

		prev := buildNaive(pos, area, lm, down)
		graphsEqual(t, prev, scan.Update(pos, down, nil))
		graphsEqual(t, prev, listed.Update(pos, down, []NodeID{}))
		for _, b := range []*Builder{scan, listed} {
			if changed, all := b.Changed(); !all || len(changed) != 0 {
				t.Fatalf("first build reported (%d changed, all=%v), want (0, true)", len(changed), all)
			}
		}

		for step := 0; len(s.data) > 0 && step < 64; step++ {
			dirty := []NodeID{} // non-nil: "only these", even when empty
			for ops := s.next() % 8; ops > 0; ops-- {
				i := s.next() % n
				switch s.next() % 5 {
				case 0: // drift by up to ±16 m
					pos[i] = area.Clamp(geom.Point{
						X: pos[i].X + float64(s.next()%33-16),
						Y: pos[i].Y + float64(s.next()%33-16),
					})
				case 1: // teleport
					pos[i] = geom.Point{X: float64(s.next()), Y: float64(s.next())}
				case 2:
					down[i] = !down[i]
				case 3:
					if lm.BarrierX > 0 {
						lm.BarrierActive = !lm.BarrierActive
						scan.SetBarrier(lm.BarrierActive)
						listed.SetBarrier(lm.BarrierActive)
					}
				case 4: // pad the dirty list with a node that may not have changed
				}
				dirty = append(dirty, NodeID(i))
				if s.next()%2 == 0 {
					dirty = append(dirty, NodeID(i), dirty[s.next()%len(dirty)])
				}
			}

			want := buildNaive(pos, area, lm, down)
			graphsEqual(t, want, scan.Update(pos, down, nil))
			graphsEqual(t, want, listed.Update(pos, down, dirty))
			for name, b := range map[string]*Builder{"scan": scan, "listed": listed} {
				changed, all := b.Changed()
				if all {
					if len(changed) != 0 {
						t.Fatalf("step %d, %s: full rebuild also lists %d changed nodes", step, name, len(changed))
					}
					continue
				}
				got := slices.Clone(changed)
				slices.Sort(got)
				if len(slices.Compact(slices.Clone(got))) != len(got) {
					t.Fatalf("step %d, %s: Changed lists duplicates: %v", step, name, changed)
				}
				var differs []NodeID
				for u := 0; u < n; u++ {
					id := NodeID(u)
					if !slices.Equal(prev.Neighbors(id), want.Neighbors(id)) ||
						!slices.Equal(prev.InNeighbors(id), want.InNeighbors(id)) {
						differs = append(differs, id)
					}
				}
				if !slices.Equal(got, differs) {
					t.Fatalf("step %d, %s: Changed = %v, but the nodes whose lists differ are %v", step, name, got, differs)
				}
			}
			prev = want
		}
	})
}
