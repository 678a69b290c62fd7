package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/golden"
)

// TestTextReportGoldens pins the text report cmd/sweep prints without
// -json, byte for byte, for a sweep, a plan, a two-seed replication and
// three optimize searches: min-cpi by coordinate descent, min-cost under
// a relative CPI budget with a probe cap that truncates the search, and
// a pareto frontier by successive halving with a trust radius small
// enough to force re-fits. The JSON reports are pinned by the
// internal/serve goldens; these pin the renderers. Each case names a
// line its report must show, so a regenerated golden cannot quietly
// lose what the case is there to cover. Regenerate with
//
//	go test ./cmd/sweep -run TextReportGoldens -update-golden
//
// only for an intentional report-format or simulator/model change.
func TestTextReportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments")
	}
	cases := []struct {
		name, kind, payload, shows string
	}{
		{"sweep_rob", experiments.JobKindSweep, kindPayloads[experiments.JobKindSweep], "sensitivity"},
		{"plan_rob_mshrs", experiments.JobKindPlan, kindPayloads[experiments.JobKindPlan], "worst extrapolation"},
		{"seeds_count2", experiments.JobKindSeeds,
			`{"base": {"name": "core2"}, "suite": "cpu2000", "count": 2}`,
			"seeds: 2 replications [1 2]"},
		{"optimize_mincpi_descent", experiments.JobKindOptimize,
			`{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96, 192]}, {"param": "mshrs", "values": [4, 8, 16]}],
			  "suite": "cpu2000", "objective": {"kind": "min-cpi"}, "search": {"algorithm": "coordinate-descent"}}`,
			"best: "},
		{"optimize_mincost_truncated", experiments.JobKindOptimize,
			`{"base": {"name": "core2"}, "axes": [{"param": "width", "values": [2, 4, 6]}, {"param": "memlat", "values": [150, 200, 300]}],
			  "suite": "cpu2000", "objective": {"kind": "min-cost", "cpiSlack": 0.1}, "search": {"maxProbes": 4}}`,
			"probe budget exhausted"},
		{"optimize_pareto_halving_refit", experiments.JobKindOptimize,
			`{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [24, 48, 96, 192]}, {"param": "l2kb", "values": [1024, 2048, 4096]}],
			  "suite": "cpu2000", "objective": {"kind": "pareto", "points": 3}, "search": {"algorithm": "successive-halving", "trustRadius": 0.5}}`,
			"(re-fitted)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, _, _ := runKind(t, c.kind, c.payload, cliOps, "", false)
			if !strings.Contains(out, c.shows) {
				t.Errorf("%s report does not show %q:\n%s", c.name, c.shows, out)
			}
			golden.Check(t, "text_"+c.name+"_core2_cpu2000_ops2000.golden", []byte(out))
		})
	}
}
