// Package card implements the paper's contribution: the Contact-based
// Architecture for Resource Discovery (CARD).
//
// Every node maintains (a) a proactive R-hop neighborhood (provided by
// package neighborhood) and (b) up to NoC contacts — nodes roughly 2R..r
// hops away with non-overlapping neighborhoods — selected by a depth-first
// Contact Selection Query (CSQ) walk, kept alive by periodic validation
// with local recovery, and queried through multi-level Destination Search
// Queries (DSQs).
//
// The three contact-selection protocols from §III.C.2 are implemented:
// PM1 (probability eq. 1), PM2 (probability eq. 2) and EM (edge method).
package card

import (
	"fmt"
	"math"
)

// Method selects the contact-acceptance protocol of §III.C.2.
type Method int

const (
	// EM is the edge method: deterministic acceptance when the candidate's
	// neighborhood contains neither the source, nor any chosen contact,
	// nor any of the source's edge nodes. It is the zero value: the paper's
	// evaluation concludes EM dominates, so it is the default.
	EM Method = iota
	// PM1 accepts with probability P = (d-R)/(r-R) (paper eq. 1).
	PM1
	// PM2 accepts with probability P = (d-2R)/(r-2R) (paper eq. 2).
	PM2
)

func (m Method) String() string {
	switch m {
	case PM1:
		return "PM1"
	case PM2:
		return "PM2"
	case EM:
		return "EM"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// lowerBound is the minimum legal contact distance the method aims for;
// maintenance rule 4 drops contacts outside [lowerBound, r].
func (m Method) lowerBound(r1 int) int {
	if m == PM1 {
		return r1 + 1 // beyond the neighborhood
	}
	return 2 * r1 // beyond the overlap band (eq. 2 / edge method)
}

// Config parameterizes a CARD protocol instance. Depth and ValidatePeriod
// have no legal zero, so Validate fills theirs with the documented
// default; every other field means what it says. Call Validate (or rely
// on New) to check consistency.
type Config struct {
	// R is the neighborhood radius in hops (required, >= 1).
	R int
	// MaxContactDist is the paper's r: the maximum contact distance in
	// hops (required, > R).
	MaxContactDist int
	// NoC is the target number of contacts per node (>= 0). Zero is the
	// paper's no-contacts baseline: selection and upkeep never run, every
	// table stays empty and a query sees only its own neighborhood.
	NoC int
	// Depth is the query depth of search D (default 1).
	Depth int
	// Method selects PM1, PM2 or EM (default EM, the paper's winner).
	Method Method
	// ValidatePeriod is the contact-maintenance interval in seconds
	// (default 2, at least 1 ms).
	ValidatePeriod float64
	// LocalRecovery enables path splicing during validation (default on;
	// the ablation benches switch it off). Stored inverted so the zero
	// value means enabled.
	DisableLocalRecovery bool
	// MaxFailedWalks bounds how many CSQ walks may come home empty within
	// one selection round before the source gives up until the next
	// round. Zero (the default) means unlimited — the paper's §III.C.1
	// behavior of sending a CSQ "through each of its edge node, one at a
	// time" until the table is full, which is what produces the large
	// saturated-regime backtracking of Figs. 4, 11 and 12. Deployments
	// that prefer bounded per-round cost set a small positive cap; the
	// trade-off is fewer contacts when the eligible band is thin (walks
	// through different edge nodes explore different directions, so one
	// failure proves little).
	MaxFailedWalks int
}

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if c.R < 1 {
		return fmt.Errorf("card: R = %d, need >= 1", c.R)
	}
	if c.R > 255 {
		// A neighborhood view keeps hop distances in a uint8 column.
		return fmt.Errorf("card: R = %d, need <= 255", c.R)
	}
	if c.MaxContactDist <= c.R {
		return fmt.Errorf("card: r = %d must exceed R = %d", c.MaxContactDist, c.R)
	}
	if c.NoC < 0 {
		return fmt.Errorf("card: NoC = %d, need >= 0", c.NoC)
	}
	if c.Depth == 0 {
		c.Depth = 1
	}
	if c.Depth < 1 {
		return fmt.Errorf("card: Depth = %d, need >= 1", c.Depth)
	}
	if c.Method < EM || c.Method > PM2 {
		return fmt.Errorf("card: unknown method %d", int(c.Method))
	}
	if c.ValidatePeriod == 0 {
		c.ValidatePeriod = 2
	}
	// Advance never returns under a NaN period.
	if !(c.ValidatePeriod >= 1e-3) || math.IsInf(c.ValidatePeriod, 1) {
		return fmt.Errorf("card: ValidatePeriod %v, need a finite period >= 1 ms", c.ValidatePeriod)
	}
	if c.MaxFailedWalks < 0 {
		return fmt.Errorf("card: negative MaxFailedWalks %d", c.MaxFailedWalks)
	}
	return nil
}
