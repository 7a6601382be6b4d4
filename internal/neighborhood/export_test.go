package neighborhood

// Overlaps reports whether the neighborhoods of a and b intersect — the
// paper's overlap predicate between a candidate contact and the source (or
// a previously selected contact). The sorted member lists are merged
// directly, O(|ball(a)|+|ball(b)|), independent of network size.
func Overlaps(p Provider, a, b NodeID) bool {
	x, y := p.Members(a), p.Members(b)
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			return true
		}
	}
	return false
}
