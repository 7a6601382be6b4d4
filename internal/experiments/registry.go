package experiments

import (
	"fmt"
	"sort"
)

// Experiment is one registered table, figure, ablation or extension: the
// id `cardsim -exp` accepts, the group it runs with, and the one-line
// artifact description `cardsim -list` and README's table print.
type Experiment struct {
	ID    string
	Group string // "paper" or "ablation"
	Doc   string
	run   func(Options) *Table
}

// Run regenerates the experiment as a Table.
func (e Experiment) Run(o Options) *Table {
	o.fill()
	return e.run(o)
}

// registry lists every experiment once, in presentation order: the paper's
// artifacts, then the design-choice ablations and future-work extensions.
var registry = []Experiment{
	{"table1", "paper", "Table 1 — connectivity census of the eight scenarios", table1},
	{"fig3", "paper", "Fig. 3 — reachability of PM vs EM as NoC grows", fig3},
	{"fig4", "paper", "Fig. 4 — CSQ backtracking overhead, PM vs EM", fig4},
	{"fig5", "paper", "Fig. 5 — reachability distribution vs neighborhood radius R", fig5.table},
	{"fig6", "paper", "Fig. 6 — reachability distribution vs max contact distance r", fig6.table},
	{"fig7", "paper", "Fig. 7 — reachability distribution vs number of contacts", fig7.table},
	{"fig8", "paper", "Fig. 8 — reachability distribution vs query depth D", fig8.table},
	{"fig9", "paper", "Fig. 9 — reachability distribution at growing network sizes", fig9},
	{"fig10", "paper", "Fig. 10 — overhead per node over time vs NoC", fig10.table},
	{"fig11", "paper", "Fig. 11 — overhead per node over time vs r", fig11.table},
	{"fig12", "paper", "Fig. 12 — backtracking share of the overhead vs r", fig12.table},
	{"fig13", "paper", "Fig. 13 — maintenance overhead and contact count over time", fig13.table},
	{"fig14", "paper", "Fig. 14 — normalized reachability/overhead trade-off", fig14},
	{"fig15", "paper", "Fig. 15 — query traffic: CARD vs flooding vs bordercasting", fig15},
	{"abl-methods", "ablation", "ablation — PM1 vs PM2 vs EM head-to-head", ablMethods},
	{"abl-recovery", "ablation", "ablation — local recovery on/off", ablRecovery},
	{"abl-qd", "ablation", "ablation — bordercast query-detection levels", ablQD},
	{"abl-mobility", "ablation", "ablation — same workload under static / RWP / walk / Gauss–Markov / RPGM / churn", ablMobility},
	{"replication", "ablation", "extension — resource replication (§V future work): CARD vs flood vs expanding ring", replication},
	{"smallworld", "ablation", "small-world framing: contacts as short cuts", smallWorld},
	{"sustained", "ablation", "extension — every registered discovery scheme under sustained Zipf query traffic with churn", sustained},
	{"sweep", "ablation", "generic NoC × r parameter sweep with Pareto frontier", stockSweep},
	{"scale", "ablation", "engine presets under batched query load (all mobility models, churn)", scale},
}

// Names returns the sorted experiment ids.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.ID
	}
	sort.Strings(names)
	return names
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
}

// Group returns the experiments of one group ("paper" or "ablation") in
// presentation order, for "run everything" sweeps.
func Group(group string) []Experiment {
	var out []Experiment
	for _, e := range registry {
		if e.Group == group {
			out = append(out, e)
		}
	}
	return out
}
