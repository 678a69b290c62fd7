package experiments

import (
	"fmt"
	"strings"

	"repro/internal/uarch"
)

// SweepParam is one explorable machine axis: a name, a documentation
// string, a reader for the current value, and a translation of an
// explored value into machine overrides. The same axes drive one-axis
// sweeps (RunSweep, cmd/sweep, POST /v1/sweep) and multi-axis plans
// (RunPlan, POST /v1/plan); GET /v1/params serves the set so
// clients can discover valid axes instead of hard-coding them.
type SweepParam struct {
	Name string
	Doc  string
	Get  func(*uarch.Machine) int
	Set  func(int) uarch.Overrides
	// CostDown marks axes where a *smaller* value is the more expensive
	// design point (faster memory costs more than slower memory). The
	// optimizer's cost proxy inverts such axes: cost grows as the value
	// shrinks. Capacity-like axes (ROB entries, L2 KB, widths) leave it
	// false — bigger is costlier.
	CostDown bool
}

// sweepParams is the single source of axis knowledge, in display order,
// shared by the sweep/plan engines, cmd/sweep's flag documentation and
// the serving layer's validation and discovery endpoint.
var sweepParams = []SweepParam{
	{Name: "rob", Doc: "reorder-buffer entries",
		Get: func(m *uarch.Machine) int { return m.ROBSize },
		Set: func(v int) uarch.Overrides { return uarch.Overrides{ROBSize: v} }},
	{Name: "mshrs", Doc: "outstanding memory misses",
		Get: func(m *uarch.Machine) int { return m.MSHRs },
		Set: func(v int) uarch.Overrides { return uarch.Overrides{MSHRs: v} }},
	{Name: "memlat", Doc: "main-memory latency (cycles)",
		Get:      func(m *uarch.Machine) int { return m.MemLat },
		Set:      func(v int) uarch.Overrides { return uarch.Overrides{MemLat: v} },
		CostDown: true}, // lower latency = faster, pricier memory
	{Name: "depth", Doc: "front-end pipeline depth",
		Get: func(m *uarch.Machine) int { return m.FrontEndDepth },
		Set: func(v int) uarch.Overrides { return uarch.Overrides{FrontEndDepth: v} }},
	{Name: "width", Doc: "dispatch/issue/commit width",
		Get: func(m *uarch.Machine) int { return m.DispatchWidth },
		Set: func(v int) uarch.Overrides {
			return uarch.Overrides{DispatchWidth: v, IssueWidth: v, CommitWidth: v}
		}},
	{Name: "l2kb", Doc: "L2 capacity (KB)",
		Get: func(m *uarch.Machine) int { return m.L2.SizeBytes >> 10 },
		Set: func(v int) uarch.Overrides {
			return uarch.Overrides{L2: uarch.CacheOverrides{SizeBytes: v << 10}}
		}},
}

// SweepParams lists the axes in display order.
func SweepParams() []SweepParam {
	return append([]SweepParam(nil), sweepParams...)
}

// SweepParamByName resolves an axis; unknown names list the valid ones.
func SweepParamByName(name string) (SweepParam, error) {
	var known []string
	for _, p := range sweepParams {
		if p.Name == name {
			return p, nil
		}
		known = append(known, p.Name)
	}
	return SweepParam{}, fmt.Errorf("experiments: unknown sweep parameter %q (want one of %s)",
		name, strings.Join(known, ", "))
}
