package engine

import (
	"fmt"
	"slices"
	"sort"

	proto "card/internal/card"
	"card/internal/workload"
)

// Preset is a named, ready-to-run workload: a network scenario plus a
// protocol tuning that suits it. New workloads are one struct literal away
// — add an entry to the table below and every consumer (cmd/cardsim
// -preset, the examples, the scaling benchmarks) can run it by name.
type Preset struct {
	Name        string
	Description string
	// Doc is the one-line scenario summary shown by cardsim -presets:
	// mobility model, node count, area, radio range and churn. It is
	// synthesized from Net once, when the table is built (see DescribeNet),
	// never hand-written, so it cannot drift from the config it documents.
	Doc      string
	Net      NetworkConfig
	Protocol proto.Config
	// Horizon is the suggested simulated duration in seconds for a
	// representative run (0 = static scenario, query-only).
	Horizon float64
	// Traffic is the preset's suggested sustained query-traffic shape for
	// RunWorkload (zero QPS = no sustained-traffic phase). cardsim runs it
	// after the one-shot query batch and overlays the -qps/-zipf flags on
	// top; Traffic.Seed 0 means "derive from the run seed".
	Traffic workload.Config
}

// DescribeNet renders the scenario facts of a network config as one
// line; preset Doc lines are synthesized with it, and cardsim reuses it
// when flag overlays (e.g. -churn) change a preset's config after lookup.
func DescribeNet(nc NetworkConfig) string {
	churn := "no churn"
	if nc.hasChurn() {
		churn = fmt.Sprintf("churn up~%gs/down~%gs", nc.ChurnMeanUp, nc.ChurnMeanDown)
	}
	extra := ""
	if nc.Mobility == GroupMobility {
		g := nc.rpgmConfig()
		extra = fmt.Sprintf(" (%d groups, r=%gm)", g.Groups, g.GroupRadius)
	}
	size := fmt.Sprintf("N=%d | %gx%gm", nc.Nodes, nc.Width, nc.Height)
	if nc.Mobility == TraceReplay && nc.Nodes == 0 {
		// Trace presets may be registered before the trace is loaded; N and
		// the area are then inferred by engine.New, not known here.
		size = fmt.Sprintf("%s | N/area from trace", nc.TracePath)
	}
	// Heterogeneous radios report the whole range distribution — printing
	// only the nominal (max) range would silently misdescribe a directed
	// scenario.
	tx := fmt.Sprintf("tx %gm", nc.TxRange)
	if nc.RangeSpread > 0 {
		tx = fmt.Sprintf("tx %g-%gm (spread %g, asymmetric)",
			nc.TxRange*(1-nc.RangeSpread), nc.TxRange*(1+nc.RangeSpread), nc.RangeSpread)
	}
	doc := fmt.Sprintf("%s%s | %s | %s | %s",
		nc.Mobility, extra, size, tx, churn)
	if nc.Loss > 0 {
		doc += fmt.Sprintf(" | loss %g%% (%d retries)", nc.Loss*100, nc.LossRetries)
	}
	if nc.PartitionPeriod > 0 {
		doc += fmt.Sprintf(" | partition %gs every %gs", nc.PartitionDuration, nc.PartitionPeriod)
	}
	return doc
}

// New builds an engine for the preset. seed overrides the preset's
// default; pass the same seed to get the same run.
func (p Preset) New(seed uint64) (*Engine, error) {
	nc := p.Net
	nc.Seed = seed
	return New(nc, p.Protocol)
}

// The built-in presets span the deployment classes the paper motivates
// (§II): dense static sensor fields, sparse slow-moving rescue teams, and
// citywide random-waypoint fleets at the 1k–5k scale the companion
// small-world study evaluates. Protocol tunings follow the paper's Fig. 9
// recipe: R and NoC grow with N so shallow queries cover most of the
// field.
var builtinPresets = []Preset{
	{
		Name:        "dense-sensor-field",
		Description: "2000 static sensors, 1000x1000 m, 50 m radio — dense energy-bound field",
		Net:         NetworkConfig{Nodes: 2000, Width: 1000, Height: 1000, TxRange: 50, Mobility: Static, Seed: 1},
		Protocol:    proto.Config{R: 4, MaxContactDist: 20, NoC: 8, Depth: 3},
	},
	{
		Name:        "sparse-rescue",
		Description: "1000 responders over 2000x2000 m, 100 m radio, 1-5 m/s with 30 s pauses",
		Net: NetworkConfig{
			Nodes: 1000, Width: 2000, Height: 2000, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 5, Pause: 30, Seed: 1,
		},
		Protocol: proto.Config{R: 3, MaxContactDist: 14, NoC: 6, Depth: 2, ValidatePeriod: 2},
		Horizon:  60,
	},
	{
		Name:        "citywide-rwp-1k",
		Description: "1000 vehicles over 1500x1500 m, 100 m radio, 1-19 m/s random waypoint",
		Net: NetworkConfig{
			Nodes: 1000, Width: 1500, Height: 1500, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 19, Seed: 1,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 6, Depth: 2, ValidatePeriod: 2},
		Horizon:  30,
		// Moderate serving load: ~100 lookups/s against a 256-entry
		// catalogue with a hot head (Zipf 0.9), 4 replicas each.
		Traffic: workload.Config{QPS: 100, Duration: 30, Resources: 256, Replicas: 4, ZipfS: 0.9},
	},
	{
		Name:        "citywide-rwp-5k",
		Description: "5000 vehicles over 3000x3000 m, 100 m radio — the large-scale regime",
		Net: NetworkConfig{
			Nodes: 5000, Width: 3000, Height: 3000, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 19, Pause: 10, Seed: 1,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2},
		Horizon:  30,
		// The large-scale serving regime: 200 qps over a 512-entry
		// catalogue, Zipf-hot head, 8 replicas.
		Traffic: workload.Config{QPS: 200, Duration: 30, Resources: 512, Replicas: 8, ZipfS: 0.9},
	},
	{
		// Density-matched to citywide-rwp-5k (~5.6e-4 nodes/m²): the
		// headroom scenario for the parallel maintenance rounds, double the
		// node count the serial write loop was tuned on.
		Name:        "citywide-rwp-10k",
		Description: "10000 vehicles over 4200x4200 m, 100 m radio — parallel-maintenance headroom",
		Net: NetworkConfig{
			Nodes: 10000, Width: 4200, Height: 4200, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 19, Pause: 10, Seed: 1,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2},
		Horizon:  30,
	},
	{
		// Density-matched to the 10k preset (~5.7e-4 nodes/m²) at 10× the
		// population: the scale target for dirty-set maintenance. Long
		// pauses keep per-refresh adjacency diffs sparse, so restricted
		// rounds touch a small fraction of the field; the flat-slab state
		// keeps the 100k-node footprint cache-friendly. DirtyMaintenance is
		// on by default — this is the first preset where full rounds are
		// the wrong trade.
		Name:        "citywide-rwp-100k",
		Description: "100000 vehicles over 13300x13300 m, 100 m radio — dirty-set maintenance at scale",
		Net: NetworkConfig{
			Nodes: 100000, Width: 13300, Height: 13300, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 19, Pause: 60, Seed: 1,
			DirtyMaintenance: true,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2},
		Horizon:  30,
	},
	{
		// Density-matched to the citywide family (~5.7e-4 nodes/m²) at the
		// million-node rung. Everything O(N)-per-step is gone at this size:
		// lazy mobility steps only un-paused travelers, the incremental
		// builder re-examines only the moved list, the deficit bitset
		// replaces the below-NoC table scan, and ViewCacheCap bounds
		// resident neighborhood views to a quarter-million entries
		// computed on demand — a warm full view table alone would dwarf the
		// rest of the footprint. Long pauses keep per-refresh diffs sparse,
		// so a steady-state round touches thousands of nodes, not 10⁶.
		Name:        "metro-rwp-1m",
		Description: "1000000 vehicles over 42000x42000 m, 100 m radio — the million-node rung",
		Net: NetworkConfig{
			Nodes: 1_000_000, Width: 42000, Height: 42000, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 19, Pause: 120, Seed: 1,
			DirtyMaintenance: true, ViewCacheCap: 1 << 18,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2},
		Horizon:  30,
	},
	{
		// The 5k regime under Gauss–Markov: smooth correlated trajectories
		// keep links alive longer than RWP's sharp turns, so contact paths
		// decay gradually instead of snapping — the favorable-mobility
		// bookend to rescue-groups-1k.
		Name:        "citywide-gm-5k",
		Description: "5000 vehicles over 3000x3000 m, 100 m radio, Gauss-Markov drift (12 m/s, alpha 0.85)",
		Net: NetworkConfig{
			Nodes: 5000, Width: 3000, Height: 3000, TxRange: 100,
			Mobility: GaussMarkov, GMMeanSpeed: 12, GMAlpha: 0.85, GMSpeedSigma: 3, Seed: 1,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2},
		Horizon:  30,
	},
	{
		// Reference-point group mobility: 25 teams that stay internally
		// dense while the teams themselves scatter — contacts must bridge
		// between groups, the worst case for neighborhood-overlap pruning.
		Name:        "rescue-groups-1k",
		Description: "1000 responders in 25 groups over 2000x2000 m, 100 m radio, RPGM with 150 m group radius",
		Net: NetworkConfig{
			Nodes: 1000, Width: 2000, Height: 2000, TxRange: 100,
			Mobility: GroupMobility, Groups: 25, GroupRadius: 150,
			MinSpeed: 1, MaxSpeed: 5, Pause: 30, MemberSpeed: 2, Seed: 1,
		},
		Protocol: proto.Config{R: 3, MaxContactDist: 14, NoC: 6, Depth: 2, ValidatePeriod: 2},
		Horizon:  60,
	},
	{
		// Heterogeneous radios in a disaster field: per-node transmission
		// ranges spread ±50% around the nominal 100 m (handhelds next to
		// vehicle-mounted sets), making the link graph directed — a strong
		// transmitter hears nobody back. Every 60 s a 15 s partition cuts
		// the field down the middle (a collapsed corridor) and heals, so
		// contact tables repeatedly lose and rediscover the far half.
		Name:        "disaster-hetero-5k",
		Description: "5000 responders over 3000x3000 m, mixed 50-150 m radios, partition-and-heal every 60 s",
		Net: NetworkConfig{
			Nodes: 5000, Width: 3000, Height: 3000, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 5, Pause: 30, Seed: 1,
			RangeSpread:     0.5,
			PartitionPeriod: 60, PartitionDuration: 15,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2},
		Horizon:  30,
	},
	{
		// The 10k citywide regime over lossy urban links: every unicast hop
		// is dropped with 10% probability (frozen per link within a refresh
		// epoch — link fade, not per-packet noise) and retried up to 3
		// times, so validation and query traffic pay a visible retry tax
		// and some stored paths break purely from loss.
		Name:        "lossy-metro-10k",
		Description: "10000 vehicles over 4200x4200 m, 100 m radio, 10% hop loss with 3 retries",
		Net: NetworkConfig{
			Nodes: 10000, Width: 4200, Height: 4200, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 19, Pause: 10, Seed: 1,
			Loss: 0.1, LossRetries: 3,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2},
		Horizon:  30,
		// Sustained serving load under loss: the retry tax shows up in the
		// workload report's per-category message split.
		Traffic: workload.Config{QPS: 100, Duration: 30, Resources: 512, Replicas: 8, ZipfS: 0.9},
	},
	{
		// Node churn over a mobile fleet: nodes power off for ~15 s out of
		// every ~75 s, so roughly a fifth of the population is dark at any
		// instant and contact tables are perpetually rebuilding.
		Name:        "churn-2k",
		Description: "2000 vehicles over 2000x2000 m, 100 m radio, RWP with exponential up/down churn",
		Net: NetworkConfig{
			Nodes: 2000, Width: 2000, Height: 2000, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 10,
			ChurnMeanUp: 60, ChurnMeanDown: 15, Seed: 1,
		},
		Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 6, Depth: 2, ValidatePeriod: 2},
		Horizon:  30,
		// Sustained load under churn: offered queries keep arriving while
		// ~a fifth of sources and holders are dark at any instant.
		Traffic: workload.Config{QPS: 100, Duration: 30, Resources: 256, Replicas: 4, ZipfS: 0.9},
	},
}

// presets is the built-in table sorted by name, each Doc synthesized
// once from its network config.
var presets = func() []Preset {
	out := make([]Preset, len(builtinPresets))
	for i, p := range builtinPresets {
		p.Doc = DescribeNet(p.Net)
		out[i] = p
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}()

// Presets returns all built-in presets sorted by name.
func Presets() []Preset { return slices.Clone(presets) }

// LookupPreset returns the built-in preset named name.
func LookupPreset(name string) (Preset, error) {
	names := make([]string, 0, len(presets))
	for _, p := range presets {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return Preset{}, fmt.Errorf("engine: unknown preset %q (have %v)", name, names)
}
