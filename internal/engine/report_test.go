package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"card/internal/workload"
)

// TestReportSumsToRecorder pins the report's message section against the
// recorder for every preset shrunk to 150 nodes (density kept): the
// categories sum to Network().Totals().Total() and to Total, each per-node
// value is its total over N, Overhead is MessageCounts.Overhead, and the
// JSON round-trips to an equal report, sustained phase included.
func TestReportSumsToRecorder(t *testing.T) {
	for _, p := range Presets() {
		t.Run(p.Name, func(t *testing.T) {
			nc := p.Net
			f := 150 / float64(nc.Nodes)
			nc.Nodes = 150
			nc.Width, nc.Height = nc.Width*math.Sqrt(f), nc.Height*math.Sqrt(f)
			if nc.Groups > 0 {
				nc.Groups = 6
			}
			e := newEngine(t, nc, p.Protocol)
			e.SelectContacts()
			e.Advance(min(p.Horizon, 4))
			r := e.Report(mustBatch(t, e, "card", e.RandomPairs(20, 3)))
			rec := e.Network().Totals() // the report's moment; the sustained phase adds to it
			if p.Traffic.QPS > 0 {
				var err error
				r.Sustained, err = e.RunWorkload(workload.Config{QPS: 10, Duration: 1, Resources: 16, Replicas: 2, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
			}

			var sum int64
			for _, c := range r.Messages {
				sum += c.Total
				if c.PerNode != float64(c.Total)/float64(r.Nodes) {
					t.Errorf("%s: per node %v, want %d / %d", c.Name, c.PerNode, c.Total, r.Nodes)
				}
			}
			m := CountMessages(rec)
			if want := rec.Total(); sum != want || r.Total.Total != want {
				t.Errorf("categories sum to %d, Total %d; recorder total %d", sum, r.Total.Total, want)
			}
			if r.Overhead.Total != m.Overhead() || r.Total.PerNode != float64(r.Total.Total)/150 {
				t.Errorf("overhead %+v, total %+v; want overhead %d", r.Overhead, r.Total, m.Overhead())
			}
			if len(r.Messages) != reflect.TypeOf(MessageCounts{}).NumField() {
				t.Errorf("report lists %d categories, MessageCounts has %d", len(r.Messages), reflect.TypeOf(MessageCounts{}).NumField())
			}
			if r.Batch.Queries == 0 || r.Manifest.Schema != ReportSchema || r.Manifest.Net.Nodes != 150 || r.Manifest.Protocol.Depth == 0 {
				t.Errorf("report misses the batch or the manifest: %+v, %+v", r.Batch, r.Manifest)
			}

			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, r) {
				t.Errorf("JSON round trip changed the report:\n got %+v\nwant %+v", back, *r)
			}
		})
	}
}

// TestNewRefusesOversizedTables pins the route-slot ceiling: a NoC whose
// N·NoC·(r+1) route arena is past maxRouteSlots is refused by New before
// anything is allocated (the 10⁸ contacts per node here would ask for
// terabytes), while NoC at N is still a legal run.
func TestNewRefusesOversizedTables(t *testing.T) {
	cfg := testCfg()
	cfg.NoC = 100_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(testNet(1000), cfg)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "route slots, max 1e+09") {
		t.Fatalf("New with NoC 1e8 on 1000 nodes: err = %v, want the route-slot bound", err)
	}
	// The error and its message: 1000 positions alone would be 16 KB.
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<10 {
		t.Errorf("refusing the tables allocated %d bytes; the check runs after the build", b)
	}
	cfg.NoC = 10
	e := newEngine(t, testNet(10), cfg)
	e.SelectContacts()
}
