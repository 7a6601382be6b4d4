package card

// acceptProb evaluates P = (d-lo)/(r-lo) clamped to [0,1]. When the band is
// degenerate (r <= lo, e.g. r = 2R under eq. 2), acceptance collapses to
// "only at d >= r", the limit the formula approaches.
func acceptProb(d, lo, r int) float64 {
	if r <= lo {
		if d >= r {
			return 1
		}
		return 0
	}
	pr := float64(d-lo) / float64(r-lo)
	if pr < 0 {
		return 0
	}
	if pr > 1 {
		return 1
	}
	return pr
}
