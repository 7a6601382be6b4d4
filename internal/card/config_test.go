package card

import (
	"math"
	"testing"
)

func TestConfigValidateErrors(t *testing.T) {
	cases := []Config{
		{R: 0, MaxContactDist: 10},
		{R: 256, MaxContactDist: 300},
		{R: 3, MaxContactDist: 3},
		{R: 3, MaxContactDist: 2},
		{R: 3, MaxContactDist: 10, NoC: -1},
		{R: 3, MaxContactDist: 10, Depth: -2},
		{R: 3, MaxContactDist: 10, ValidatePeriod: -1},
		// NaN hung Advance; +Inf never maintained; under the 1 ms floor one
		// simulated second is over a thousand rounds.
		{R: 3, MaxContactDist: 10, ValidatePeriod: math.NaN()},
		{R: 3, MaxContactDist: 10, ValidatePeriod: math.Inf(1)},
		{R: 3, MaxContactDist: 10, ValidatePeriod: math.Inf(-1)},
		{R: 3, MaxContactDist: 10, ValidatePeriod: 1e-9},
		{R: 3, MaxContactDist: 10, Method: Method(9)},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected error", i, c)
		}
	}
}

// TestConfigDefaults pins which zero fields Validate fills: only Depth and
// ValidatePeriod, which have no legal zero. NoC 0 stays 0.
func TestConfigDefaults(t *testing.T) {
	c := Config{R: 3, MaxContactDist: 10}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c != (Config{R: 3, MaxContactDist: 10, Depth: 1, ValidatePeriod: 2}) {
		t.Errorf("Validate filled more or less than Depth and ValidatePeriod: %+v", c)
	}
}

// TestConfigNoCZeroAllowedExplicitly pins that NoC 0 is the paper's
// no-contacts baseline, not a request for a default.
func TestConfigNoCZeroAllowedExplicitly(t *testing.T) {
	c := Config{R: 3, MaxContactDist: 10, NoC: 0}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NoC != 0 {
		t.Errorf("NoC 0 read as %d", c.NoC)
	}
}

func TestMethodString(t *testing.T) {
	if PM1.String() != "PM1" || PM2.String() != "PM2" || EM.String() != "EM" {
		t.Error("method names wrong")
	}
	if Method(7).String() != "Method(7)" {
		t.Error("unknown method name wrong")
	}
}

func TestMethodLowerBound(t *testing.T) {
	if got := PM1.lowerBound(3); got != 4 {
		t.Errorf("PM1 lower bound = %d, want 4", got)
	}
	if got := PM2.lowerBound(3); got != 6 {
		t.Errorf("PM2 lower bound = %d, want 6", got)
	}
	if got := EM.lowerBound(3); got != 6 {
		t.Errorf("EM lower bound = %d, want 6", got)
	}
}

func TestAcceptProb(t *testing.T) {
	// eq. 1 shape: P(d=R)=0, P(d=r)=1, linear between.
	if got := acceptProb(3, 3, 20); got != 0 {
		t.Errorf("P at d=lo = %v, want 0", got)
	}
	if got := acceptProb(20, 3, 20); got != 1 {
		t.Errorf("P at d=r = %v, want 1", got)
	}
	mid := acceptProb(11, 3, 20)
	if mid <= 0 || mid >= 1 {
		t.Errorf("P mid-band = %v, want in (0,1)", mid)
	}
	// Clamping below/above the band.
	if got := acceptProb(1, 3, 20); got != 0 {
		t.Errorf("P below band = %v", got)
	}
	if got := acceptProb(30, 3, 20); got != 1 {
		t.Errorf("P above band = %v", got)
	}
	// Degenerate band r <= lo: step function at r.
	if got := acceptProb(5, 6, 6); got != 0 {
		t.Errorf("degenerate below = %v", got)
	}
	if got := acceptProb(6, 6, 6); got != 1 {
		t.Errorf("degenerate at r = %v", got)
	}
	if got := acceptProb(7, 8, 6); got != 1 {
		t.Errorf("degenerate beyond r = %v", got)
	}
}

func TestAcceptProbMonotoneInD(t *testing.T) {
	prev := -1.0
	for d := 0; d <= 25; d++ {
		p := acceptProb(d, 6, 20)
		if p < prev {
			t.Fatalf("acceptProb not monotone at d=%d: %v < %v", d, p, prev)
		}
		prev = p
	}
}
