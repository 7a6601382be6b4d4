package experiments

import "testing"

// TestClaims asserts the paper's qualitative claims on the figures it
// makes them with, at the paper's sizes over three seeds — the check a
// re-recorded golden file is read against. At smaller scales a claim can
// flip with the seed (Figs. 3 and 4 at N = 100) or with the size (Fig. 15
// at N <= 200), so the Quick tests keep only their shape checks.
func TestClaims(t *testing.T) {
	o := Options{Seeds: 3, Scale: 1}

	// Fig. 3: the edge method reaches more than the probabilistic one at
	// every NoC, and neither loses reachability as NoC grows.
	f3 := run(t, "fig3", o)
	for r := range f3.Rows {
		pm, em := cellFloat(t, f3, r, 1), cellFloat(t, f3, r, 2)
		if em <= pm {
			t.Errorf("fig3 NoC=%d: EM reach %v not above PM %v", r+1, em, pm)
		}
		if r > 0 {
			if prev := cellFloat(t, f3, r-1, 1); pm < prev {
				t.Errorf("fig3 NoC=%d: PM reach fell %v -> %v", r+1, prev, pm)
			}
			if prev := cellFloat(t, f3, r-1, 2); em < prev {
				t.Errorf("fig3 NoC=%d: EM reach fell %v -> %v", r+1, prev, em)
			}
		}
	}

	// Fig. 4: EM backtracks at most half as much as PM at every NoC.
	f4 := run(t, "fig4", o)
	for r := range f4.Rows {
		if pm, em := cellFloat(t, f4, r, 1), cellFloat(t, f4, r, 2); em > pm/2 {
			t.Errorf("fig4 NoC=%d: EM backtracking %v above half of PM's %v", r+1, em, pm)
		}
	}

	// Fig. 10: overhead rises strictly with NoC (3 < 4 < 5 < 7) in every
	// window.
	f10 := run(t, "fig10", o)
	for r := range f10.Rows {
		for c := 2; c < len(f10.Columns); c++ {
			if lo, hi := cellFloat(t, f10, r, c-1), cellFloat(t, f10, r, c); hi <= lo {
				t.Errorf("fig10 t=%s: %s overhead %v not above %s's %v",
					f10.Rows[r][0], f10.Columns[c], hi, f10.Columns[c-1], lo)
			}
		}
	}

	// Fig. 15: CARD's query traffic is below bordercasting's, which is
	// below flooding's, at every network size.
	f15 := run(t, "fig15", o)
	for r := range f15.Rows {
		fl, bc, cd := cellFloat(t, f15, r, 1), cellFloat(t, f15, r, 2), cellFloat(t, f15, r, 3)
		if !(cd < bc && bc < fl) {
			t.Errorf("fig15 N=%s: want CARD %v < bordercast %v < flooding %v", f15.Rows[r][0], cd, bc, fl)
		}
	}
}
