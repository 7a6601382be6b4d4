package card

import "card/internal/manet"

// shortenRoute rewrites a source route in place as its relays would cut it:
// walking forward from the owner, each node jumps to the farthest later node
// of the route that is itself again (a loop) or that it hears directly — a
// two-way link of net's current snapshot — and otherwise steps to its
// successor. The result keeps both endpoints, visits no node twice, has no
// chord (no node links two-way to a later one other than its successor), and
// every hop of it is a hop of the input or a two-way link.
//
// Every relay knows its direct neighbours, so the cut costs no state and no
// message. It reads adjacency only, never a neighbourhood view, and runs
// only where a route is rewritten anyway (acceptContact, validatePath after
// a splice): an intact route has nothing to cut and would pay ~len²/2 binary
// searches to learn it.
func shortenRoute(net *manet.Network, path []NodeID) []NodeID {
	out := path[:0]
	for i := 0; i < len(path); {
		x := path[i]
		next := i + 1
		for j := len(path) - 1; j > next; j-- {
			if path[j] == x || net.Bidirectional(x, path[j]) {
				next = j
				break
			}
		}
		if next == len(path) || path[next] != x { // else a loop: resume at x's last occurrence
			out = append(out, x)
		}
		i = next
	}
	return out
}
