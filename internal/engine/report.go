package engine

import (
	proto "card/internal/card"
	"card/internal/resource"
	"card/internal/topology"
	"card/internal/workload"
)

// ReportSchema is the Report layout version; a change to what a field
// means bumps it.
const ReportSchema = 1

// Report is one run's self-describing record, built from the engine's own
// counters: what was run, the topology, the contact tables, every message
// category and the query phases. encoding/json is its one serialization;
// cardsim's preset text renders it. Host times stay with the caller, so a
// report is a pure function of the run.
type Report struct {
	Manifest Manifest        `json:"manifest"`
	Nodes    int             `json:"nodes"`
	Up       int             `json:"up"`
	SimTime  float64         `json:"sim_s"`
	Rounds   int64           `json:"rounds"`
	Census   topology.Census `json:"census"`
	ReachD1  float64         `json:"reach_d1_pct"` // MeanReachability(1)
	// ContactsPerNode is the mean table size over all nodes; AtNoCPct the
	// share of up nodes whose table holds NoC contacts.
	ContactsPerNode float64 `json:"contacts_per_node"`
	AtNoCPct        float64 `json:"at_noc_pct"`
	// Messages lists the MessageCounts categories in field order; Total
	// and Overhead (MessageCounts.Overhead) sum them.
	Messages  []Traffic        `json:"messages"`
	Total     Traffic          `json:"total"`
	Overhead  Traffic          `json:"overhead"`
	Batch     Batch            `json:"batch"`
	Sustained *workload.Report `json:"sustained,omitempty"` // set by a caller that ran one
}

// Manifest says what was run: the caller names the preset, its one-line
// description, the build revision and, for a sustained phase, the scheme;
// Net and Protocol are the effective configs, defaults filled.
type Manifest struct {
	Schema   int           `json:"schema"`
	Revision string        `json:"revision,omitempty"` // the binary's vcs.revision, when stamped
	Preset   string        `json:"preset,omitempty"`
	Doc      string        `json:"doc,omitempty"`
	Scheme   string        `json:"scheme"`
	Seed     uint64        `json:"seed"`
	Net      NetworkConfig `json:"net"`
	Protocol proto.Config  `json:"protocol"`
}

// Traffic is one message category: its network total and that per node.
type Traffic struct {
	Name    string  `json:"name"`
	Total   int64   `json:"total"`
	PerNode float64 `json:"per_node"`
}

// Batch tallies a one-shot query batch.
type Batch struct {
	Queries      int     `json:"queries"`
	Found        int     `json:"found"`
	Messages     int64   `json:"messages"`
	FoundPct     float64 `json:"found_pct"`
	MsgsPerQuery float64 `json:"msgs_per_query"`
}

// Report builds the run's record now, tallying batch (BatchQuery's
// results; nil for none).
func (e *Engine) Report(batch []resource.Result) *Report {
	n := e.Nodes()
	r := &Report{
		Manifest:        Manifest{Schema: ReportSchema, Scheme: "card", Seed: e.nc.Seed, Net: e.nc, Protocol: e.cfg},
		Nodes:           n,
		Up:              e.UpNodes(),
		SimTime:         e.now,
		Rounds:          e.rounds,
		Census:          e.net.Graph().ComputeCensus(),
		ReachD1:         e.MeanReachability(1),
		ContactsPerNode: float64(e.prot.TotalContacts()) / float64(n),
	}
	full := 0
	for u := range NodeID(n) {
		if !e.net.Down(u) && e.prot.Table(u).Len() >= e.cfg.NoC {
			full++
		}
	}
	r.AtNoCPct = 100 * float64(full) / float64(max(r.Up, 1))
	m := e.Messages()
	traffic := func(name string, c int64) Traffic { return Traffic{name, c, float64(c) / float64(n)} }
	for i, c := range []int64{m.Selection, m.Backtrack, m.Validation, m.Recovery, m.Query, m.Reply, m.Register, m.Retry} {
		r.Messages = append(r.Messages, traffic(categoryNames[i], c))
	}
	r.Total, r.Overhead = traffic("total", m.Total()), traffic("overhead", m.Overhead())
	r.Batch = Tally(batch)
	return r
}

// Tally sums a query batch's results.
func Tally(results []resource.Result) Batch {
	b := Batch{Queries: len(results)}
	for _, q := range results {
		b.Messages += q.Messages
		if q.Found {
			b.Found++
		}
	}
	if b.Queries > 0 {
		b.FoundPct = 100 * float64(b.Found) / float64(b.Queries)
		b.MsgsPerQuery = float64(b.Messages) / float64(b.Queries)
	}
	return b
}

// categoryNames name the MessageCounts fields in the report, in order.
var categoryNames = []string{"selection", "backtrack", "validation", "recovery", "query", "reply", "register", "retry"}
