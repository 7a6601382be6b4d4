package mobility

import (
	"math"
	"strings"
	"testing"

	"card/internal/geom"
)

// nonFiniteTraces are the three ways strconv.ParseFloat let a node leave
// the plane: an initial coordinate at +Inf, a command at time NaN and a NaN
// speed (the last two replayed (NaN, NaN) positions).
var nonFiniteTraces = []string{
	"$node_(0) set X_ 1\n$node_(0) set Y_ Inf",
	"$node_(0) set X_ 1\n$node_(0) set Y_ 1\n$ns_ at NaN \"$node_(0) setdest 5 5 1\"",
	"$node_(0) set X_ 1\n$node_(0) set Y_ 1\n$ns_ at 1 \"$node_(0) setdest 5 5 nan\"",
}

// overflowTrace parses — every number is finite — but its one leg is 2e308 m
// long, which replayed as 0·Inf = NaN from the moment the command fired.
const overflowTrace = "$node_(0) set X_ -1e308\n$node_(0) set Y_ 1\n$ns_ at 1 \"$node_(0) setdest 1e308 5 1\""

func TestTraceReplayRejectsOverflowingLeg(t *testing.T) {
	tr, err := ParseSetdest(strings.NewReader(overflowTrace))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceReplay(tr, tr.Bounds()); err == nil {
		t.Error("NewTraceReplay accepted a leg of infinite length")
	}
}

func TestParseSetdestRejectsNonFinite(t *testing.T) {
	for _, src := range nonFiniteTraces {
		_, err := ParseSetdest(strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), "trace line") {
			t.Errorf("ParseSetdest(%q): error %v, want a line-numbered one", src, err)
		}
	}
}

// FuzzParseSetdest: whatever the bytes, ParseSetdest returns an error or a
// trace that NewTraceReplay either refuses or replays at finite positions —
// at t = 0, mid-trace and past the last command.
func FuzzParseSetdest(f *testing.F) {
	f.Add(sampleTrace)
	f.Add(overflowTrace)
	for _, src := range nonFiniteTraces {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ParseSetdest(strings.NewReader(src))
		if err != nil {
			return
		}
		m, err := NewTraceReplay(tr, tr.Bounds())
		if err != nil {
			return
		}
		last := 0.0
		for _, evs := range tr.Events {
			for _, e := range evs {
				last = math.Max(last, e.T)
			}
		}
		pos := make([]geom.Point, m.N())
		for _, at := range []float64{0, last / 2, last + 1} {
			m.PositionsAt(at, pos)
			for i, p := range pos {
				if math.IsNaN(p.X+p.Y) || math.IsInf(p.X+p.Y, 0) {
					t.Fatalf("node %d at t = %v is at %v", i, at, p)
				}
			}
		}
	})
}
