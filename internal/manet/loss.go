package manet

// Lossy delivery. The paper's NS-2 runs deliver every control packet; a
// production MANET does not. The loss model here is deliberately the
// simplest one that keeps the determinism contract intact: every
// transmission attempt of a protocol-level hop u→v in topology epoch e
// succeeds or fails according to a pure hash of (seed, e, u, v, attempt).
//
// Two properties follow directly from the purity:
//
//   - Serial == parallel, by construction. Outcomes depend only on the
//     arguments, never on draw order, so sharding protocol rounds across
//     workers cannot perturb them — there is no shared generator state to
//     race on and nothing for cardlint's stream discipline to flag.
//   - Within one epoch a hop's outcome sequence is frozen: retrying the
//     same hop in the same epoch replays the same draws ("link fade" —
//     the hop is bad for this topology interval, not per-packet noise).
//     The next refresh bumps the epoch and re-rolls every link.
//
// Accounting: the first transmission of a hop is charged to the hop's own
// category, each retransmission to CatRetry. A hop that exhausts its
// retry budget behaves exactly like a broken link — the existing
// path-recovery machinery (validation detours, query failures) takes over
// from there, which is how protocol-level timeout cost surfaces in the
// recorder without a clock.

// LossConfig configures the probabilistic delivery model.
type LossConfig struct {
	// Rate is the per-transmission loss probability in [0, 1). Zero keeps
	// the lossless model: every hop costs exactly one transmission.
	Rate float64
	// Retries is the per-hop retransmission budget after the first
	// attempt; zero sends each hop once.
	Retries int
	// Seed overrides the loss stream seed; zero derives one from the
	// network's own generator lineage at construction.
	Seed uint64
}

// lossMix is the splitmix64 finalizer — full-avalanche, so consecutive
// (epoch, edge, attempt) tuples decorrelate completely.
func lossMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hopDelivered reports whether transmission attempt a of hop u→v succeeds
// in the current epoch. Pure in (lossSeed, epoch, u, v, attempt).
func (n *Network) hopDelivered(u, v NodeID, attempt int) bool {
	h := lossMix(n.lossSeed ^ n.epoch)
	h = lossMix(h ^ (uint64(uint32(u))<<32 | uint64(uint32(v))))
	h = lossMix(h ^ uint64(attempt))
	// Top 53 bits → uniform in [0,1), the same float discipline xrand uses.
	return float64(h>>11)*0x1p-53 >= n.lossRate
}

// TryHop models one protocol-level unicast hop u→v against the current
// snapshot: the hop needs a bidirectional link (data out, acknowledgement
// back) and delivery within the retry budget. It returns the number of
// transmissions attempted — 0 when no usable link exists and nothing was
// sent, otherwise 1 + retransmissions — and whether the packet got
// through. Callers charge the first transmission to the hop's category
// and the rest to CatRetry, each into its own tally (the walkPath helper
// in this package's tests pins that contract). Deterministic and
// order-independent within an epoch; see loss.go's package notes.
func (n *Network) TryHop(u, v NodeID) (attempts int, delivered bool) {
	if !n.graph.Bidirectional(u, v) {
		return 0, false
	}
	if n.lossRate <= 0 {
		return 1, true
	}
	for a := 0; a <= n.lossRetries; a++ {
		if n.hopDelivered(u, v, a) {
			return a + 1, true
		}
	}
	return n.lossRetries + 1, false
}
