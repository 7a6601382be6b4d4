package mobility

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"card/internal/geom"
)

// TraceEvent is one movement command of a trace: at time T the node heads
// for (X, Y) at Speed m/s (ns-2 setdest semantics — course changes take
// effect from wherever the node currently is).
type TraceEvent struct {
	T     float64
	X, Y  float64
	Speed float64
}

// Trace is a parsed movement trace: per-node initial positions plus
// time-ordered setdest events. Traces are plain data; NewTraceReplay turns
// one into a mobility model.
type Trace struct {
	// Initial holds each node's starting position.
	Initial []geom.Point
	// Events holds each node's movement commands sorted by time.
	Events [][]TraceEvent
}

// N returns the number of nodes in the trace.
func (tr *Trace) N() int { return len(tr.Initial) }

// Bounds returns the axis-aligned bounding box of every position the trace
// names (initial placements and destinations), anchored at the origin.
func (tr *Trace) Bounds() geom.Rect {
	var w, h float64
	grow := func(x, y float64) {
		if x > w {
			w = x
		}
		if y > h {
			h = y
		}
	}
	for i, p := range tr.Initial {
		grow(p.X, p.Y)
		for _, e := range tr.Events[i] {
			grow(e.X, e.Y)
		}
	}
	return geom.Rect{W: w, H: h}
}

// ParseSetdest reads an ns-2 setdest movement trace:
//
//	$node_(7) set X_ 150.73
//	$node_(7) set Y_ 93.98
//	$ns_ at 10.0 "$node_(7) setdest 250.0 300.0 5.0"
//
// Z_ coordinates, comments (#...) and blank lines are ignored; unknown
// lines are rejected so silently truncated traces cannot masquerade as
// valid workloads. Node ids must be dense in [0, N) by the end of the
// trace (any id may appear first) and every number finite. A setdest speed
// <= 0 stops the node where it is, as generators emit "pause" commands.
func ParseSetdest(r io.Reader) (*Trace, error) {
	type nodeData struct {
		init       geom.Point
		hasX, hasY bool
		events     []TraceEvent
	}
	nodes := map[int]*nodeData{}
	get := func(id int) *nodeData {
		nd := nodes[id]
		if nd == nil {
			nd = &nodeData{}
			nodes[id] = nd
		}
		return nd
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// setdest interleaves GOD annotations ($god_ set-dist i j d, bare
		// or wrapped in $ns_ at ... "...") with the movement commands; they
		// carry shortest-path data the simulator recomputes itself.
		if strings.HasPrefix(line, "$god_") || strings.Contains(line, "\"$god_") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "$node_("):
			// $node_(ID) set X_ <v>
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "set" {
				return nil, fmt.Errorf("mobility: trace line %d: malformed node command %q", lineNo, line)
			}
			id, err := parseNodeID(f[0])
			if err != nil {
				return nil, fmt.Errorf("mobility: trace line %d: %v", lineNo, err)
			}
			v, err := parseFinite(f[3])
			if err != nil {
				return nil, fmt.Errorf("mobility: trace line %d: bad coordinate %q", lineNo, f[3])
			}
			nd := get(id)
			switch f[2] {
			case "X_":
				nd.init.X, nd.hasX = v, true
			case "Y_":
				nd.init.Y, nd.hasY = v, true
			case "Z_":
				// 2-D simulation: ignored.
			default:
				return nil, fmt.Errorf("mobility: trace line %d: unknown attribute %q", lineNo, f[2])
			}
		case strings.HasPrefix(line, "$ns_"):
			// $ns_ at <t> "$node_(ID) setdest <x> <y> <speed>"
			f := strings.Fields(strings.NewReplacer("\"", " ", "\\", " ").Replace(line))
			if len(f) != 8 || f[1] != "at" || f[4] != "setdest" {
				return nil, fmt.Errorf("mobility: trace line %d: malformed setdest %q", lineNo, line)
			}
			id, err := parseNodeID(f[3])
			if err != nil {
				return nil, fmt.Errorf("mobility: trace line %d: %v", lineNo, err)
			}
			var ev TraceEvent
			for _, p := range []struct {
				dst *float64
				tok string
			}{{&ev.T, f[2]}, {&ev.X, f[5]}, {&ev.Y, f[6]}, {&ev.Speed, f[7]}} {
				if *p.dst, err = parseFinite(p.tok); err != nil {
					return nil, fmt.Errorf("mobility: trace line %d: bad number %q", lineNo, p.tok)
				}
			}
			get(id).events = append(get(id).events, ev)
		default:
			return nil, fmt.Errorf("mobility: trace line %d: unrecognized line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mobility: reading trace: %w", err)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mobility: empty trace")
	}
	tr := &Trace{
		Initial: make([]geom.Point, len(nodes)),
		Events:  make([][]TraceEvent, len(nodes)),
	}
	// Walk ids in order rather than ranging the map: validation errors
	// (and therefore which malformed node is reported) stay deterministic.
	for id := 0; id < len(nodes); id++ {
		nd := nodes[id]
		if nd == nil {
			// Pigeonhole: len(nodes) distinct ids with one of [0, N)
			// missing means some id was negative or >= N.
			return nil, fmt.Errorf("mobility: trace node ids not dense: %d nodes but no node %d", len(nodes), id)
		}
		if !nd.hasX || !nd.hasY {
			return nil, fmt.Errorf("mobility: trace node %d missing initial X_/Y_", id)
		}
		sort.SliceStable(nd.events, func(a, b int) bool { return nd.events[a].T < nd.events[b].T })
		tr.Initial[id] = nd.init
		tr.Events[id] = nd.events
	}
	return tr, nil
}

// parseFinite is strconv.ParseFloat less NaN and ±Inf, in any spelling.
func parseFinite(tok string) (float64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = strconv.ErrRange
	}
	return v, err
}

func parseNodeID(tok string) (int, error) {
	open := strings.IndexByte(tok, '(')
	close := strings.IndexByte(tok, ')')
	if !strings.HasPrefix(tok, "$node_") || open < 0 || close < open {
		return 0, fmt.Errorf("malformed node reference %q", tok)
	}
	id, err := strconv.Atoi(tok[open+1 : close])
	if err != nil || id < 0 {
		return 0, fmt.Errorf("bad node id in %q", tok)
	}
	return id, nil
}

// LoadSetdestFile parses a setdest trace from a file.
func LoadSetdestFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mobility: %w", err)
	}
	defer f.Close()
	tr, err := ParseSetdest(f)
	if err != nil {
		return nil, fmt.Errorf("mobility: trace %s: %w", path, err)
	}
	return tr, nil
}

// traceSegment is one piecewise-linear piece of a node's trajectory: the
// node is at from at t0, at to at t1 (t1 > t0), and interpolates linearly
// in between. Segments are disjoint and time-ordered; between segments —
// and after the last — the node holds the previous segment's endpoint.
type traceSegment struct {
	t0, t1   float64
	from, to geom.Point
}

// TraceReplay replays a parsed movement trace as a mobility model with
// piecewise-linear interpolation, so externally generated workloads
// (ns-2 setdest output, measurement traces converted to setdest form)
// become first-class scenarios. A setdest command that arrives while a
// node is still in flight changes course from the node's mid-flight
// position, exactly as ns-2 executes it; after its last command completes
// a node holds its final position. Sampling uses a monotone per-node
// cursor, so times must be non-decreasing across calls (the simulator's
// clock is monotone).
type TraceReplay struct {
	area geom.Rect
	init []geom.Point
	segs [][]traceSegment
	cur  []int
}

// NewTraceReplay compiles a trace into a replayable model. A zero area
// infers the trace's bounding box (traces generated for a W×H field name
// its extremes); an explicit area should contain the trace — positions
// are clamped to it defensively either way.
func NewTraceReplay(tr *Trace, area geom.Rect) (*TraceReplay, error) {
	if tr.N() == 0 {
		return nil, fmt.Errorf("mobility: empty trace")
	}
	if area.W == 0 && area.H == 0 {
		area = tr.Bounds()
	}
	if area.W <= 0 || area.H <= 0 {
		return nil, fmt.Errorf("mobility: degenerate trace area %v", area)
	}
	m := &TraceReplay{
		area: area,
		init: append([]geom.Point(nil), tr.Initial...),
		segs: make([][]traceSegment, tr.N()),
		cur:  make([]int, tr.N()),
	}
	for i := range tr.Initial {
		var segs []traceSegment
		for _, e := range tr.Events[i] {
			et := e.T
			if et < 0 {
				et = 0
			}
			// Where is the node when the command fires? Truncate any
			// segment still in flight at that instant — the new command
			// preempts the old course.
			pos := m.init[i]
			if k := len(segs) - 1; k >= 0 {
				last := &segs[k]
				if et >= last.t1 {
					pos = last.to
				} else {
					if et <= last.t0 {
						// Same-instant override: drop the preempted segment.
						pos = last.from
						segs = segs[:k]
					} else {
						frac := (et - last.t0) / (last.t1 - last.t0)
						pos = last.from.Lerp(last.to, frac)
						last.t1, last.to = et, pos
					}
				}
			}
			if e.Speed <= 0 {
				continue // pause command: hold pos until the next command
			}
			dest := geom.Point{X: e.X, Y: e.Y}
			dist := pos.Dist(dest)
			if math.IsInf(dist, 0) { // finite ends, but Lerp along it is 0·Inf
				return nil, fmt.Errorf("mobility: trace node %d: leg %v → %v overflows", i, pos, dest)
			}
			dur := dist / e.Speed
			if dur <= 0 {
				continue // already at the destination
			}
			segs = append(segs, traceSegment{t0: et, t1: et + dur, from: pos, to: dest})
		}
		m.segs[i] = segs
	}
	return m, nil
}

// N implements Model.
func (m *TraceReplay) N() int { return len(m.init) }

// Area implements Model.
func (m *TraceReplay) Area() geom.Rect { return m.area }

// PositionsAt implements Model. t must be non-decreasing across calls.
func (m *TraceReplay) PositionsAt(t float64, dst []geom.Point) {
	for i := range m.segs {
		dst[i] = m.area.Clamp(m.positionAt(i, t))
	}
}

func (m *TraceReplay) positionAt(i int, t float64) geom.Point {
	segs := m.segs[i]
	for m.cur[i] < len(segs) && t >= segs[m.cur[i]].t1 {
		m.cur[i]++
	}
	c := m.cur[i]
	if c >= len(segs) {
		if len(segs) == 0 {
			return m.init[i]
		}
		return segs[len(segs)-1].to
	}
	s := segs[c]
	if t <= s.t0 {
		if c == 0 {
			return s.from
		}
		return segs[c-1].to
	}
	frac := (t - s.t0) / (s.t1 - s.t0)
	return s.from.Lerp(s.to, frac)
}
