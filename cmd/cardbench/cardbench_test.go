package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"card/internal/engine"
	"card/internal/manet"
	"card/internal/workload"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in this package")

const specPath = "../../BENCHMARK.json"

// TestBenchmarkJSONMatchesTables keeps the contract file and the code in
// step: BENCHMARK.json must be exactly what the tables say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(specPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatalf("%v (run go test ./cmd/cardbench -run BenchmarkJSON -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; run go test ./cmd/cardbench -run BenchmarkJSON -update")
	}
}

// TestSchema pins the limits the benchmark contract sets on names, units,
// counts and bounds.
func TestSchema(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	s := spec()
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound != nil && !(*m.Bound > 0 && *m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == lower && m.Bound != nil
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better, bounded) is missing from the end-to-end metrics")
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
}

// TestTinySmoke runs all four workloads at -scale tiny through the real
// entry point and checks the shape of everything it writes: every
// end-to-end and per-layer metric on every workload, sample counts, a
// manifest, valid checks, a parsable driver line and well-formed spans.
func TestTinySmoke(t *testing.T) {
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "out.json"), filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "tiny", "-out", out, "-spans", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	f, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != len(workloads) {
		t.Fatalf("%d results, want %d", len(f.Results), len(workloads))
	}
	if f.Manifest.GoVersion == "" || f.Manifest.NProc < 1 || f.Manifest.VCSRevision == "" {
		t.Errorf("incomplete run manifest: %+v", f.Manifest)
	}
	for i, r := range f.Results {
		if r.Workload != workloads[i].Name {
			t.Errorf("result %d is %s, want %s", i, r.Workload, workloads[i].Name)
		}
		if !r.Valid || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: valid %v, failed %d, attempted %d; checks %+v", r.Workload, r.Valid, r.Failed, r.Attempted, r.Checks)
		}
		for _, d := range endToEnd {
			if m, ok := r.EndToEnd[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s missing or in unit %q", r.Workload, d.Name, m.Unit)
			} else if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", r.Workload, d.Name, m.Value)
			}
		}
		for _, d := range perLayer {
			if m, ok := r.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or in unit %q", r.Workload, d.Name, m.Unit)
			}
		}
		for _, k := range []string{"refresh_ticks", "round_ticks", "queries", "setups_per_arm", "replay_ticks", "reach_nodes"} {
			if r.Samples[k] < 1 {
				t.Errorf("%s: sample count %s missing", r.Workload, k)
			}
		}
		m := r.Manifest
		if m.Net == "" || m.Card.R == 0 || m.Traffic.QPS == 0 || len(m.Phases) < 4*len(m.Arms) || !strings.HasPrefix(m.Model, "unvalidated") {
			t.Errorf("%s: incomplete manifest %+v", r.Workload, m)
		}
		for _, s := range m.Arms {
			if r.PerLayer["scheme."+s+".discover_us_p50"].Value <= 0 {
				t.Errorf("%s: arm %s reported no discovery time", r.Workload, s)
			}
		}
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line of stdout is not the driver object: %v", err)
	}
	if !line.Correct || len(line.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("driver line: correct %v, %d metrics, want %d", line.Correct, len(line.Metrics), len(endToEnd)+len(perLayer))
	}

	sf, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		var s struct {
			span
			SelfNS int64 `json:"self_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start || s.SelfNS < 0 || s.SelfNS > s.End-s.Start || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
		names[s.Name]++
	}
	for _, n := range []string{"replay", "tick", "manet.refresh", "mobility.step", "neighborhood.warm", "card.maintain",
		"card.expire", "engine.advance", "scheme.setup", "scheme.maintain", "scheme.discover", "scheme.flush"} {
		if names[n] == 0 {
			t.Errorf("no %s span recorded", n)
		}
	}
}

// TestDriverModes checks the two invocations a benchmark driver makes:
// -trace 0 prints exactly the end-to-end metrics, -trace 1 exactly the
// per-layer ones.
func TestDriverModes(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "city-5k", "--seed", "3", "--seconds", "1", "--trace", trace, "-scale", "tiny"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := line.Metrics[d.Name]; !ok {
				t.Errorf("-trace %s: metric %s missing", trace, d.Name)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 || !strings.Contains(stderr.String(), "city-5k") {
		t.Errorf("unknown workload: exit %d, stderr %q; want non-zero and the workload names", code, stderr.String())
	}
}

// TestReplayEqualsAdvance is the replay's licence: two engines from one
// seed, one driven by workload.Run over engine.Advance, one by the
// replay's layer calls, must end in the same state — tables, statistics,
// recorder totals and the per-query outcome stream — on a plain world,
// under churn, loss and partitions, under dirty maintenance, and for a
// scheme with its own set-up and maintenance.
func TestReplayEqualsAdvance(t *testing.T) {
	// At tiny scale the presets' pauses and rare churn would leave two of
	// the worlds motionless for the whole test, so those cases speed them up.
	cases := []struct {
		workload, scheme string
		tweak            func(*engine.NetworkConfig)
	}{
		{"city-5k", "card", func(nc *engine.NetworkConfig) { nc.Pause = 0 }},
		{"rich-2k", "card", nil},
		{"sparse-100k", "card", func(nc *engine.NetworkConfig) { nc.ChurnMeanUp, nc.ChurnMeanDown = 30, 10 }},
		{"baselines-1k", "rendezvous", nil},
		{"baselines-1k", "bordercast", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+c.scheme, func(t *testing.T) {
			w, err := lookupWorkload(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.world(7, true)
			if err != nil {
				t.Fatal(err)
			}
			if c.tweak != nil {
				c.tweak(&p.Net)
			}
			traffic := w.Traffic
			traffic.Scheme, traffic.Duration, traffic.Seed = c.scheme, 6, 11
			traffic.Tick, traffic.KeepOutcomes = tick, true

			a, _, err := setUp(p, 2)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := workload.Run(a, traffic)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := setUp(p, 2)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := runReplay(b, p, traffic, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rr.ShadowErr != nil {
				t.Errorf("shadow mobility diverged: %v", rr.ShadowErr)
			}
			if rep.Queries == 0 || rr.Rounds != 3 || rr.Ticks != 12 {
				t.Fatalf("degenerate run: %d queries, %d rounds, %d ticks", rep.Queries, rr.Rounds, rr.Ticks)
			}
			if len(rr.Outcomes) != len(rep.Outcomes) {
				t.Fatalf("replay executed %d queries, Advance %d", len(rr.Outcomes), len(rep.Outcomes))
			}
			flips := mean(rr.Flips) * float64(len(rr.Flips))
			if rr.Recoveries+rr.Lost+rr.Expired == 0 || (p.Net.ChurnMeanUp > 0 && (flips == 0 || rr.Expired == 0)) ||
				(p.Net.Loss > 0 && rr.Msgs.Get(manet.CatRetry) == 0) {
				t.Errorf("the world never changed: %d recoveries, %d lost, %d expired, %d retries, %g churn flips",
					rr.Recoveries, rr.Lost, rr.Expired, rr.Msgs.Get(manet.CatRetry), flips)
			}
			if da, db := stateDigest(a, rep.Outcomes), stateDigest(b, rr.Outcomes); da != db {
				t.Errorf("state digests differ: Advance %016x, replay %016x", da, db)
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {15, 50}, {20, 50}, {21, 52}, {40, 75}, {50, 80}, {54, 81}, {100, 90}, {300, 90},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		// The definition: at least tailBeyond samples beyond the picked
		// percentile, and fewer beyond the next one up (unless capped).
		beyond := func(p int) int { return c.n - (p*c.n+99)/100 }
		if got > 50 && beyond(got) < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond p%d", c.n, beyond(got), got)
		}
		if got > 50 && got < 90 && beyond(got+1) >= tailBeyond {
			t.Errorf("n=%d: p%d also has %d samples beyond it", c.n, got+1, beyond(got+1))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail(1..100) = %g at p%d, want 90 at p90", v, p)
	}
	if m := median(xs); m != 50.5 {
		t.Errorf("median(1..100) = %g, want 50.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	root := l.begin("tick", -1)
	a := l.begin("a", root)
	time.Sleep(time.Millisecond)
	l.end(a)
	b := l.begin("b", root)
	l.end(b)
	l.end(root)
	self := selfTimes(l.spans)
	if want := l.spans[root].dur() - l.spans[a].dur() - l.spans[b].dur(); self[root] != want || self[root] < 0 {
		t.Errorf("root self time %v, want %v", self[root], want)
	}
	if self[a] != l.spans[a].dur() || self[a] < time.Millisecond {
		t.Errorf("leaf self time %v, span %v", self[a], l.spans[a].dur())
	}
	var none *spanLog
	if id := none.begin("x", -1); id != -1 || none.end(id) != 0 {
		t.Error("a nil span log must record nothing")
	}
}

func TestCompare(t *testing.T) {
	mk := func(setup, found float64, digest string) *resultFile {
		r := &result{Workload: "city-5k", StateDigest: digest, EndToEnd: map[string]metric{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = metric{Value: 10, Unit: d.Unit}
		}
		r.EndToEnd["setup_s"] = metric{Value: setup, Unit: "s"}
		r.EndToEnd["found_pct"] = metric{Value: found, Unit: "%"}
		return &resultFile{Results: []*result{r}}
	}
	for _, c := range []struct {
		name        string
		old, new    *resultFile
		worse       bool
		wantVerdict string
	}{
		{"same", mk(10, 50, "a"), mk(10, 50, "a"), false, ""},
		{"within bound", mk(10, 50, "a"), mk(12, 50, "a"), false, ""},
		{"slower", mk(10, 50, "a"), mk(13, 50, "a"), true, "setup_s"},
		{"faster", mk(10, 50, "a"), mk(7, 50, "a"), false, "setup_s"},
		{"behaviour", mk(10, 50, "a"), mk(10, 50.001, "b"), false, "found_pct"},
	} {
		var out bytes.Buffer
		worse, err := compareResults(&out, c.old, c.new)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.worse, out.String())
		}
		for _, row := range strings.Split(out.String(), "\n")[1:] {
			f := strings.Fields(row)
			if len(f) == 0 {
				continue
			}
			v := f[len(f)-1]
			if f[1] == c.wantVerdict {
				want := map[string]string{"slower": verdictWorse, "faster": verdictBetter, "behaviour": verdictChanged}[c.name]
				if v != want {
					t.Errorf("%s: %s judged %s, want %s", c.name, f[1], v, want)
				}
			} else if f[1] == "state_digest" && c.name == "behaviour" {
				if v != verdictChanged {
					t.Errorf("differing digests judged %s", v)
				}
			} else if v != verdictOK {
				t.Errorf("%s: %s judged %s, want ok", c.name, f[1], v)
			}
		}
	}
	if v := verdict(metricDef{Better: higher, Bound: 0.1}, 10, 8); v != verdictWorse {
		t.Errorf("a higher-is-better metric falling 20%% judged %s", v)
	}
	if _, err := compareResults(&bytes.Buffer{}, mk(1, 1, "a"), &resultFile{}); err == nil {
		t.Error("a workload missing from the new results must be an error")
	}
}
