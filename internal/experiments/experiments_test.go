package experiments

import (
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"card/internal/card"
	"card/internal/scheme"
	"card/internal/sweep"
)

// quick returns lightweight options for CI.
func quick() Options { return Options{Seeds: 1, Scale: 0.3} }

// run regenerates the experiment registered under id.
func run(t *testing.T, id string, o Options) *Table {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(o)
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a float: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestScenarioScaled(t *testing.T) {
	s := Scenario5.Scaled(0.25)
	if s.N != 125 {
		t.Errorf("scaled N = %d, want 125", s.N)
	}
	// Area scales by sqrt(0.25)=0.5 per side: density preserved.
	if s.Area.W < 354 || s.Area.W > 356 {
		t.Errorf("scaled width = %v, want ~355", s.Area.W)
	}
	if got := Scenario5.Scaled(1); got.N != 500 {
		t.Errorf("scale 1 changed scenario: %+v", got)
	}
	if got := Scenario5.Scaled(0.0001); got.N < 10 {
		t.Errorf("scale floor violated: N = %d", got.N)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.Add(1, 2.5)
	tab.Add("x", 3.0)
	text := tab.Text()
	if !strings.Contains(text, "demo") || !strings.Contains(text, "2.5") {
		t.Errorf("Text missing content:\n%s", text)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | b |") {
		t.Errorf("Markdown header wrong: %q", md)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("", "v")
	tab.Add(`has,comma "quoted"`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"has,comma ""quoted"""`) {
		t.Errorf("CSV quoting wrong: %q", csv)
	}
}

func TestRegistry(t *testing.T) {
	paper, ablations := Group("paper"), Group("ablation")
	if len(Names()) != len(paper)+len(ablations) {
		t.Errorf("registry size %d != paper %d + ablations %d",
			len(Names()), len(paper), len(ablations))
	}
	for _, e := range append(paper, ablations...) {
		if _, err := Lookup(e.ID); err != nil {
			t.Errorf("Lookup(%q): %v", e.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunTable1Quick(t *testing.T) {
	tab := run(t, "table1", quick())
	if len(tab.Rows) != 8 {
		t.Fatalf("Table 1 rows = %d, want 8", len(tab.Rows))
	}
	// Monotonic sanity within equal-N rows: larger area -> fewer links
	// (rows 1..3 are 250 nodes over growing areas).
	l1 := cellFloat(t, tab, 0, 4)
	l3 := cellFloat(t, tab, 2, 4)
	if l3 >= l1 {
		t.Errorf("sparser scenario has more links: %v >= %v", l3, l1)
	}
	// Range sweep (rows 4..6, 500 nodes, ranges 30/50/70): degree grows.
	d4 := cellFloat(t, tab, 3, 5)
	d6 := cellFloat(t, tab, 5, 5)
	if d6 <= d4 {
		t.Errorf("longer range should raise degree: %v <= %v", d6, d4)
	}
}

func TestRunFig3Quick(t *testing.T) {
	tab := run(t, "fig3", quick())
	if len(tab.Rows) != 9 {
		t.Fatalf("Fig 3 rows = %d", len(tab.Rows))
	}
}

func TestRunFig4Quick(t *testing.T) {
	tab := run(t, "fig4", quick())
	if len(tab.Rows) != 5 {
		t.Fatalf("Fig 4 rows = %d", len(tab.Rows))
	}
}

func TestRunFig7Quick(t *testing.T) {
	tab := run(t, "fig7", quick())
	if len(tab.Rows) != 20 {
		t.Fatalf("Fig 7 rows = %d, want 20 bins", len(tab.Rows))
	}
	// NoC=0 column (neighborhood only) must concentrate in low bins:
	// no mass above 50 % for a scaled scenario-5 network.
	for row := 10; row < 20; row++ {
		if v := cellFloat(t, tab, row, 1); v > 0 {
			t.Errorf("NoC=0 has %v nodes above 50%% reachability", v)
		}
	}
}

func TestRunFig8Quick(t *testing.T) {
	tab := run(t, "fig8", quick())
	// Mean reachability must grow with depth: compare histogram means via
	// weighted sums.
	mean := func(col int) float64 {
		var sum, n float64
		for row := 0; row < len(tab.Rows); row++ {
			mid := 2.5 + 5*float64(row)
			c := cellFloat(t, tab, row, col)
			sum += mid * c
			n += c
		}
		if n == 0 {
			return 0
		}
		return sum / n
	}
	d1, d3 := mean(1), mean(3)
	if d3 < d1 {
		t.Errorf("depth 3 mean reachability %v below depth 1 %v", d3, d1)
	}
}

func TestRunFig10Quick(t *testing.T) {
	tab := run(t, "fig10", quick())
	if len(tab.Rows) != 5 {
		t.Fatalf("Fig 10 rows = %d, want 5 windows", len(tab.Rows))
	}
}

func TestRunFig13Quick(t *testing.T) {
	tab := run(t, "fig13", quick())
	if len(tab.Rows) != 10 {
		t.Fatalf("Fig 13 rows = %d, want 10 windows over 20s", len(tab.Rows))
	}
	if cellFloat(t, tab, 0, 2) <= 0 {
		t.Error("no contacts at first window")
	}
}

func TestRunFig14Quick(t *testing.T) {
	tab := run(t, "fig14", quick())
	if len(tab.Rows) != 11 {
		t.Fatalf("Fig 14 rows = %d", len(tab.Rows))
	}
	// Normalized columns peak at 1.
	maxNR, maxNO := 0.0, 0.0
	for r := range tab.Rows {
		if v := cellFloat(t, tab, r, 3); v > maxNR {
			maxNR = v
		}
		if v := cellFloat(t, tab, r, 4); v > maxNO {
			maxNO = v
		}
	}
	if maxNR != 1 || maxNO != 1 {
		t.Errorf("normalization peaks = %v, %v, want 1, 1", maxNR, maxNO)
	}
	// Reachability at NoC=10 must exceed NoC=0.
	if cellFloat(t, tab, 10, 1) <= cellFloat(t, tab, 0, 1) {
		t.Error("contacts bought no reachability in fig14")
	}
}

func TestRunFig15Quick(t *testing.T) {
	tab := run(t, "fig15", quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("Fig 15 rows = %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		if succ := cellFloat(t, tab, r, 5); succ < 50 {
			t.Errorf("row %d: CARD success %v%% implausibly low", r, succ)
		}
	}
	// Flooding grows with N.
	if cellFloat(t, tab, 2, 1) <= cellFloat(t, tab, 0, 1) {
		t.Error("flooding cost did not grow with N")
	}
}

func TestAblationsQuick(t *testing.T) {
	m := run(t, "abl-methods", quick())
	if len(m.Rows) != 3 {
		t.Fatalf("methods ablation rows = %d", len(m.Rows))
	}
	rec := run(t, "abl-recovery", quick())
	if len(rec.Rows) != 2 {
		t.Fatalf("recovery ablation rows = %d", len(rec.Rows))
	}
	// Recovery on must lose no more contacts than recovery off.
	lostOn := cellFloat(t, rec, 0, 1)
	lostOff := cellFloat(t, rec, 1, 1)
	if lostOn > lostOff {
		t.Errorf("recovery on lost more contacts (%v) than off (%v)", lostOn, lostOff)
	}
	qd := run(t, "abl-qd", quick())
	if len(qd.Rows) != 3 {
		t.Fatalf("QD ablation rows = %d", len(qd.Rows))
	}
	sw := run(t, "smallworld", quick())
	if len(sw.Rows) != 4 {
		t.Fatalf("small-world rows = %d", len(sw.Rows))
	}
	// Depth monotonicity in the small-world table.
	for r := range sw.Rows {
		d1 := cellFloat(t, sw, r, 1)
		d3 := cellFloat(t, sw, r, 3)
		if d3 < d1 {
			t.Errorf("row %d: D=3 reach %v below D=1 %v", r, d3, d1)
		}
	}
}

func TestAblationMobilityQuick(t *testing.T) {
	tab := run(t, "abl-mobility", quick())
	if len(tab.Rows) != 6 {
		t.Fatalf("mobility ablation rows = %d", len(tab.Rows))
	}
	// Rows: static, waypoint, walk, gauss-markov, group, waypoint+churn.
	// Columns: 1 lost, 2 expired, 3 splices, 4 overhead, 5 contacts.
	if lost := cellFloat(t, tab, 0, 1); lost != 0 {
		t.Errorf("static run lost %v contacts/node", lost)
	}
	if lost := cellFloat(t, tab, 1, 1); lost <= 0 {
		t.Error("waypoint run lost no contacts at all")
	}
	// Only the churn row expires contacts, and it must expire some.
	for r := 0; r < 5; r++ {
		if exp := cellFloat(t, tab, r, 2); exp != 0 {
			t.Errorf("churn-free row %d expired %v contacts/node", r, exp)
		}
	}
	if exp := cellFloat(t, tab, 5, 2); exp <= 0 {
		t.Error("churn row expired no contacts")
	}
	// Every model must end the run holding some contacts.
	for r := 0; r < 6; r++ {
		if c := cellFloat(t, tab, r, 5); c <= 0 {
			t.Errorf("row %d ended with %v contacts/node", r, c)
		}
	}
}

func TestReplicationQuick(t *testing.T) {
	tab := run(t, "replication", quick())
	if len(tab.Rows) != 5 {
		t.Fatalf("replication rows = %d", len(tab.Rows))
	}
	// More replicas cannot hurt CARD's success rate (compare 1 vs 16).
	if s1, s16 := cellFloat(t, tab, 0, 2), cellFloat(t, tab, 4, 2); s16 < s1 {
		t.Errorf("replication reduced success: %v -> %v", s1, s16)
	}
	// Expanding ring gets cheaper with replication (nearer holders).
	if r1, r16 := cellFloat(t, tab, 0, 4), cellFloat(t, tab, 4, 4); r16 > r1 {
		t.Errorf("ring cost rose with replication: %v -> %v", r1, r16)
	}
}

// overheadOverTime averages runTimeSim across seeds with a direct serial
// loop: the pre-harness reference implementation seriesFig.series must
// reproduce seed for seed.
func overheadOverTime(sc Scenario, cfg card.Config, horizon float64, seeds int) TimeSeries {
	runs := make([]TimeSeries, seeds)
	for i := range runs {
		runs[i] = runTimeSim(sc, cfg, horizon, uint64(i)+1)
	}
	return averageSeries(runs)
}

// TestFigSweepsMatchDirectLoops is the refactor acceptance pin: the
// Fig. 11/12 time-series sweep and the Fig. 14 trade-off sweep, re-derived
// through the cell harness, must match the pre-refactor direct loops seed
// for seed, bit for bit.
func TestFigSweepsMatchDirectLoops(t *testing.T) {
	o := Options{Seeds: 2, Scale: 0.15}
	o.fill()
	sc := Scenario5.Scaled(o.Scale)

	// Fig. 11/12 series: harness vs the direct serial reference
	// (overheadOverTime runs runTimeSim with seeds 1..Seeds and averages).
	_, got := fig11.series(o)
	for i, r := range []int{8, 9, 10, 12, 15} {
		cfg := fig10Base()
		cfg.NoC = 5
		cfg.MaxContactDist = r
		want := overheadOverTime(sc, cfg, 10, o.Seeds)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("fig11 series for r=%d diverges from the direct loop", r)
		}
	}

	// Fig. 14 rows: harness pipeline vs the direct cell-major loop with
	// the identical averaging order.
	nocs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	reach := make([]float64, len(nocs))
	over := make([]float64, len(nocs))
	for i := 0; i < len(nocs)*o.Seeds; i++ {
		cfg := fig10Base()
		cfg.NoC = nocs[i/o.Seeds]
		m := fig14Cell(sc, cfg, uint64(i%o.Seeds)+1)
		reach[i/o.Seeds] += m[0] / float64(o.Seeds)
		over[i/o.Seeds] += m[1] / float64(o.Seeds)
	}
	tab := run(t, "fig14", o)
	for i := range nocs {
		if got, want := cellFloat(t, tab, i, 1), reach[i]; got != roundTrip(want) {
			t.Errorf("fig14 NoC=%d reach %v != direct %v", nocs[i], got, want)
		}
		if got, want := cellFloat(t, tab, i, 2), over[i]; got != roundTrip(want) {
			t.Errorf("fig14 NoC=%d overhead %v != direct %v", nocs[i], got, want)
		}
	}
}

// roundTrip pushes a float through the table's %.2f cell rendering, the
// only lossy step between the sweep pipeline and the compared table.
func roundTrip(v float64) float64 {
	f, _ := strconv.ParseFloat(strings.TrimRight(strings.TrimRight(
		strconv.FormatFloat(v, 'f', 2, 64), "0"), "."), 64)
	return f
}

func TestRunSweepQuick(t *testing.T) {
	tab := run(t, "sweep", quick())
	if len(tab.Rows) != 16 {
		t.Fatalf("sweep rows = %d, want 16 (4x4 grid)", len(tab.Rows))
	}
	if tab.Columns[0] != "NoC" || tab.Columns[1] != "r" {
		t.Fatalf("sweep columns = %v", tab.Columns[:2])
	}
	frontier := 0
	last := len(tab.Columns) - 1
	for r := range tab.Rows {
		if reach := cellFloat(t, tab, r, 3); reach <= 0 || reach > 100 {
			t.Errorf("row %d: reachability %v out of (0,100]", r, reach)
		}
		if tab.Rows[r][last] == "*" {
			frontier++
		}
	}
	if frontier == 0 {
		t.Error("no point marked on the Pareto frontier")
	}
}

func TestSweepTableRendersPoints(t *testing.T) {
	g := &sweep.Grid{Axes: []sweep.Axis{{Name: "NoC", Values: []float64{1, 2}}}}
	res, err := g.Run(func(_ sweep.CellConfig, point []float64, _ int, _ uint64) (sweep.Metrics, error) {
		return sweep.Metrics{Overhead: point[0], Reach: 10 * point[0]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := SweepTable("demo", res)
	if len(tab.Rows) != 2 || tab.Columns[0] != "NoC" {
		t.Fatalf("table shape wrong: %+v", tab)
	}
}

func TestTablePlot(t *testing.T) {
	tab := NewTable("demo", "bin", "series")
	tab.Add("0-5", 10.0)
	tab.Add("5-10", 0.0)
	tab.Add("10-15", 0.4)
	out := tab.Plot()
	if !strings.Contains(out, "-- series --") {
		t.Errorf("plot missing column section:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var barFor = map[string]int{}
	for _, l := range lines {
		if i := strings.IndexByte(l, '|'); i >= 0 {
			label := strings.TrimSpace(l[:i])
			barFor[label] = strings.Count(l, "#")
		}
	}
	if barFor["0-5"] != 50 {
		t.Errorf("max bar = %d, want 50", barFor["0-5"])
	}
	if barFor["5-10"] != 0 {
		t.Errorf("zero value drew %d chars", barFor["5-10"])
	}
	if barFor["10-15"] < 1 {
		t.Error("small non-zero value invisible")
	}
	// Non-numeric column must be skipped gracefully.
	tab2 := NewTable("x", "k", "v")
	tab2.Add("a", "oops")
	if out2 := tab2.Plot(); strings.Contains(out2, "-- v --") {
		t.Error("non-numeric column plotted")
	}
}

func TestRunSustainedQuick(t *testing.T) {
	tab := run(t, "sustained", quick())
	names := scheme.Names()
	if len(tab.Rows) != len(names) {
		t.Fatalf("sustained rows = %d, want %d schemes", len(tab.Rows), len(names))
	}
	rowOf := func(name string) int {
		t.Helper()
		for r, row := range tab.Rows {
			if row[0] == name {
				return r
			}
		}
		t.Fatalf("no sustained row for scheme %q", name)
		return -1
	}
	// One row per registered scheme. Columns: 1 success, 2 offline,
	// 3 mean, 4 P50, 5 P95, 6 P99.
	for r, name := range names {
		if got := rowOf(name); got != r {
			t.Errorf("scheme %q at row %d, want registry order %d", name, got, r)
		}
		succ := cellFloat(t, tab, r, 1)
		if succ <= 0 || succ > 100 {
			t.Errorf("row %d: success %v%% out of range", r, succ)
		}
		p50 := cellFloat(t, tab, r, 4)
		p95 := cellFloat(t, tab, r, 5)
		p99 := cellFloat(t, tab, r, 6)
		if p50 > p95 || p95 > p99 {
			t.Errorf("row %d: quantiles not monotone: %v/%v/%v", r, p50, p95, p99)
		}
	}
	card, flood := rowOf("card"), rowOf("flood")
	// Churn keeps some sources offline in every scheme, identically (the
	// offered stream is shared).
	off := cellFloat(t, tab, 0, 2)
	if off <= 0 {
		t.Error("churned scenario dropped no sources")
	}
	for r := 1; r < len(tab.Rows); r++ {
		if got := cellFloat(t, tab, r, 2); got != off {
			t.Errorf("offline %% differs across schemes: %v vs %v — streams not shared", got, off)
		}
	}
	// Flooding answers everything reachable; its success cannot trail the
	// others and its mean cost must dominate CARD's.
	if fl, cd := cellFloat(t, tab, flood, 1), cellFloat(t, tab, card, 1); fl < cd {
		t.Errorf("flood success %v%% below CARD %v%%", fl, cd)
	}
	if fl, cd := cellFloat(t, tab, flood, 3), cellFloat(t, tab, card, 3); fl <= cd {
		t.Errorf("flood mean cost %v not above CARD %v", fl, cd)
	}
}

// TestTablesMatchGolden pins every printed digit of every registered
// experiment except `scale` (its columns are wall-clock): the golden file
// is Table.CSV() of each id in Names() order at Seeds 2, Scale 0.2,
// generated before the figures became declarations over the cell harness.
func TestTablesMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digits were recorded on amd64; %s may fuse multiply-adds and move a last digit", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/golden_seeds2_scale0.2.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, id := range Names() {
		if id != "scale" {
			got.WriteString(run(t, id, Options{Seeds: 2, Scale: 0.2}).CSV())
		}
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from testdata/golden_seeds2_scale0.2.csv:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden file %d", len(gl), len(wl))
	}
}
