package main

// benchmarkSpec is the content of BENCHMARK.json at the repository root,
// derived from the tables in this package so the two cannot drift; the
// schema test compares them.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// runSeconds is the -seconds value the workloads' windows were sized and
// their spreads measured at.
const runSeconds = 10

func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"go", "run", "./cmd/cardbench"},
		Paths:      []string{"cmd/cardbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		s.EndToEnd = append(s.EndToEnd, specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return s
}
