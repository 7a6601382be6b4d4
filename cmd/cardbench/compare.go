package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Manifest runManifest `json:"manifest"`
	Results  []*result   `json:"results"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) workload(name string) *result {
	for _, r := range f.Results {
		if r.Workload == name {
			return r
		}
	}
	return nil
}

// Verdicts of one compared metric.
const (
	verdictOK      = "ok"
	verdictWorse   = "worse"  // beyond the bound in the bad direction
	verdictBetter  = "better" // beyond the bound in the good direction
	verdictChanged = "behaviour-changed"
)

// verdict judges new against old for one end-to-end metric. A simulated
// statistic repeats exactly for one seed, so any difference means the
// simulator now does something else; a host cost is judged against the
// metric's bound.
func verdict(d metricDef, old, new float64) string {
	if d.Simulated {
		if old != new {
			return verdictChanged
		}
		return verdictOK
	}
	gain := (old - new) / old // positive when new is lower
	if d.Better == higher {
		gain = -gain
	}
	switch {
	case gain < -d.Bound:
		return verdictWorse
	case gain > d.Bound:
		return verdictBetter
	}
	return verdictOK
}

// compareResults prints one row per workload and end-to-end metric of
// old, plus the state digest, and reports whether any row is worse. A
// workload or metric missing from new is an error: the two files must
// come from the same benchmark.
func compareResults(w io.Writer, old, new *resultFile) (worse bool, err error) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tbound\tverdict")
	for _, o := range old.Results {
		n := new.workload(o.Workload)
		if n == nil {
			return false, fmt.Errorf("workload %s is missing from the new results", o.Workload)
		}
		for _, d := range endToEnd {
			a, okA := o.EndToEnd[d.Name]
			b, okB := n.EndToEnd[d.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s: metric %s is missing", o.Workload, d.Name)
			}
			v := verdict(d, a.Value, b.Value)
			worse = worse || v == verdictWorse
			bound := fmt.Sprintf("%g%%", 100*d.Bound)
			if d.Simulated {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", o.Workload, d.Name, a.Value, b.Value, d.Unit, bound, v)
		}
		v := verdictOK
		if o.StateDigest != n.StateDigest {
			v = verdictChanged
		}
		fmt.Fprintf(tw, "%s\tstate_digest\t%s\t%s\t\texact\t%s\n", o.Workload, o.StateDigest, n.StateDigest, v)
	}
	return worse, tw.Flush()
}
