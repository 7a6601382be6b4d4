package sweep

import (
	"sort"
	"strconv"
)

// Pareto returns the indices (into Points) of the overhead-vs-reachability
// Pareto frontier: the points no other point dominates. Point j dominates
// point i when j costs no more overhead, reaches at least as much, and is
// strictly better on at least one of the two. Ties survive (two identical
// trade-offs are both reported). Indices come back sorted by ascending
// overhead, then descending reachability — the order a tuning table reads
// naturally.
func (r *Result) Pareto() []int {
	var front []int
	for i := range r.Points {
		mi := r.Points[i].Metrics
		dominated := false
		for j := range r.Points {
			if i == j {
				continue
			}
			mj := r.Points[j].Metrics
			if mj.Overhead <= mi.Overhead && mj.Reach >= mi.Reach &&
				(mj.Overhead < mi.Overhead || mj.Reach > mi.Reach) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	sort.Slice(front, func(a, b int) bool {
		pa, pb := r.Points[front[a]].Metrics, r.Points[front[b]].Metrics
		if pa.Overhead != pb.Overhead {
			return pa.Overhead < pb.Overhead
		}
		if pa.Reach != pb.Reach {
			return pa.Reach > pb.Reach
		}
		return front[a] < front[b]
	})
	return front
}

// metricHeaders are the scalar columns of the point table, aligned with
// RowCells.
var metricHeaders = []string{
	"overhead/node/s", "reach%", "success%",
	"msgs-mean", "msgs-p50", "msgs-p95", "msgs-p99",
	"hops-p50", "hops-p95", "pareto",
}

// Headers returns the column names of the seed-averaged point table: one
// column per axis, then the metric columns.
func (r *Result) Headers() []string {
	cols := make([]string, 0, len(r.Axes)+len(metricHeaders))
	for _, a := range r.Axes {
		cols = append(cols, a.Name)
	}
	return append(cols, metricHeaders...)
}

// RowCells returns point p's row as typed cells aligned with Headers: axis
// values as label strings (methods render as EM/PM1/PM2), metrics as
// float64, and a "*" / "" frontier marker. experiments.SweepTable renders
// it as text, CSV, Markdown or a plot.
func (r *Result) RowCells(p int) []any {
	pr := r.Points[p]
	cells := make([]any, 0, len(r.Axes)+len(metricHeaders))
	for i, a := range r.Axes {
		cells = append(cells, renderAxisValue(a, pr.Point[i]))
	}
	m := pr.Metrics
	for _, v := range []float64{
		m.Overhead, m.Reach, m.Success,
		m.Msgs.Mean, m.Msgs.P50, m.Msgs.P95, m.Msgs.P99,
		m.Hops.P50, m.Hops.P95,
	} {
		cells = append(cells, v)
	}
	mark := ""
	if pr.OnFrontier {
		mark = "*"
	}
	return append(cells, mark)
}

// renderAxisValue renders one axis value by its definition's renderer.
func renderAxisValue(a Axis, v float64) string {
	d, err := canonAxis(a.Name)
	if err != nil {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return d.render(v)
}
