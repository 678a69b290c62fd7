package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/runstore"
)

func TestParseOptimizeSpecStrict(t *testing.T) {
	good := []byte(`{
		"base": {"name": "core2"},
		"axes": [{"param": "rob", "values": [48, 96]}],
		"suite": "cpu2000",
		"objective": {"kind": "min-cpi"},
		"search": {"algorithm": "coordinate-descent", "trustRadius": 2}
	}`)
	spec, err := ParseOptimizeSpec(good)
	if err != nil || spec.Base.Name != "core2" || spec.Objective.Kind != ObjectiveMinCPI {
		t.Fatalf("ParseOptimizeSpec: %+v, %v", spec, err)
	}
	if _, err := spec.Resolve(); err != nil {
		t.Errorf("good spec should resolve: %v", err)
	}

	for name, doc := range map[string]string{
		"unknown field":     `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}, "cores": 4}`,
		"typoed search key": `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}, "search": {"algo": "x"}}`,
		"trailing data":     `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}} {}`,
		"trailing brace":    `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}}}`,
		"trailing square":   `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}}]`,
		"no axes":           `{"base": {"name": "core2"}, "axes": [], "suite": "cpu2000", "objective": {"kind": "min-cpi"}}`,
		"no suite":          `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "objective": {"kind": "min-cpi"}}`,
		"no objective":      `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000"}`,
	} {
		if _, err := ParseOptimizeSpec([]byte(doc)); err == nil {
			t.Errorf("%s should fail strict parsing", name)
		}
	}
}

func TestOptimizeSpecValidation(t *testing.T) {
	// base returns a fresh valid two-axis spec for each case to mutate.
	base := func() OptimizeSpec {
		return OptimizeSpec{
			Base:      MachineSpec{Name: "core2"},
			Axes:      []PlanAxis{{Param: "rob", Values: []int{48, 96}}, {Param: "mshrs", Values: []int{4, 8}}},
			Suite:     "cpu2000",
			Objective: ObjectiveSpec{Kind: ObjectiveMinCPI},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*OptimizeSpec)
		wantErr string
	}{
		{"unknown objective", func(s *OptimizeSpec) { s.Objective.Kind = "min-watts" }, "unknown objective kind"},
		{"negative budget", func(s *OptimizeSpec) { s.Objective.CPIBudget = -1 }, "must be positive"},
		{"budget and slack", func(s *OptimizeSpec) {
			s.Objective.Kind = ObjectiveMinCost
			s.Objective.CPIBudget = 1
			s.Objective.CPISlack = 0.1
		}, "not both"},
		{"min-cpi with budget", func(s *OptimizeSpec) { s.Objective.CPIBudget = 1 }, "takes no CPI budget"},
		{"min-cost without budget", func(s *OptimizeSpec) { s.Objective.Kind = ObjectiveMinCost }, "needs a cpiBudget"},
		{"points outside pareto", func(s *OptimizeSpec) { s.Objective.Points = 3 }, "only applies to pareto"},
		{"pareto needs 2+ axes", func(s *OptimizeSpec) {
			s.Objective.Kind = ObjectivePareto
			s.Axes = s.Axes[:1]
		}, "wants 2 or 3 axes"},
		{"pareto points range", func(s *OptimizeSpec) {
			s.Objective.Kind = ObjectivePareto
			s.Objective.Points = 50
		}, "points must be 2–9"},
		{"unknown algorithm", func(s *OptimizeSpec) { s.Search.Algorithm = "simulated-annealing" }, "unknown search algorithm"},
		{"negative maxProbes", func(s *OptimizeSpec) { s.Search.MaxProbes = -1 }, "maxProbes"},
		{"negative trustRadius", func(s *OptimizeSpec) { s.Search.TrustRadius = -0.5 }, "trustRadius"},
		{"rungs with descent", func(s *OptimizeSpec) { s.Search.Rungs = 3 }, "rungs only apply"},
		{"rungs range", func(s *OptimizeSpec) {
			s.Search.Algorithm = SearchSuccessiveHalving
			s.Search.Rungs = 9
		}, "rungs must be 2–6"},
		{"unknown machine", func(s *OptimizeSpec) { s.Base.Name = "core9" }, "unknown machine"},
		{"unknown axis", func(s *OptimizeSpec) { s.Axes[0].Param = "cores" }, "unknown sweep parameter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mutate(&spec)
			_, err := spec.Resolve()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Resolve error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}

	// Defaults: empty search resolves to coordinate descent with one
	// doubling of trust; pareto defaults to 5 scalarizations; halving
	// defaults to 3 rungs.
	spec := base()
	o, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o.Search.Algorithm != SearchCoordinateDescent || o.Search.TrustRadius != 1 {
		t.Errorf("search defaults: %+v", o.Search)
	}
	spec = base()
	spec.Objective.Kind = ObjectivePareto
	if o, err = spec.Resolve(); err != nil || o.Objective.Points != 5 {
		t.Errorf("pareto points default: %+v, %v", o.Objective, err)
	}
	spec = base()
	spec.Search.Algorithm = SearchSuccessiveHalving
	if o, err = spec.Resolve(); err != nil || o.Search.Rungs != 3 {
		t.Errorf("halving rungs default: %+v, %v", o.Search, err)
	}
}

func TestOptimizeBounds(t *testing.T) {
	spec := OptimizeSpec{
		Base:      MachineSpec{Name: "core2"},
		Axes:      []PlanAxis{{Param: "rob", Values: []int{48, 96, 192}}, {Param: "mshrs", Values: []int{4, 8}}},
		Suite:     "cpu2000",
		Objective: ObjectiveSpec{Kind: ObjectiveMinCPI},
	}
	o, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o.ProbeBound() != 6 || o.runBound(12) != (1+6)*12 {
		t.Errorf("descent bounds: probes %d, runs %d", o.ProbeBound(), o.runBound(12))
	}
	spec.Search = SearchSpec{MaxProbes: 2}
	if o, err = spec.Resolve(); err != nil || o.ProbeBound() != 2 || o.runBound(12) != (1+2)*12 {
		t.Errorf("capped bounds: %+v, %v", o, err)
	}
	// Two-rung halving screens the whole grid once at reduced fidelity
	// before the full-fidelity survivors.
	spec.Search = SearchSpec{Algorithm: SearchSuccessiveHalving, Rungs: 2}
	if o, err = spec.Resolve(); err != nil || o.runBound(12) != (1+6+6)*12 {
		t.Errorf("halving bounds: %+v, %v", o, err)
	}
}

// optimizeGrid is the shared small-grid fixture: core2 over
// width×memlat on the tiny suite — two axes the extrapolated model
// discriminates on, monotone in both, so coordinate descent provably
// reaches the global optimum the exhaustive plan finds.
func optimizeGrid(t *testing.T, objective ObjectiveSpec, search SearchSpec) *Optimize {
	t.Helper()
	spec := OptimizeSpec{
		Base: MachineSpec{Name: "core2"},
		Axes: []PlanAxis{
			{Param: "width", Values: []int{2, 4, 8}},
			{Param: "memlat", Values: []int{150, 300}},
		},
		Suite:     tinySuite(t),
		Objective: objective,
		Search:    search,
	}
	o, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestOptimizeDescentMatchesExhaustivePlan is the acceptance property:
// on the committed example-style grid, coordinate descent finds the
// exact argmin cell the exhaustive plan enumeration finds — same
// machine, bit-identical extrapolated CPI — while probing strictly
// fewer cells, and a warm rerun answers entirely from the store.
func TestOptimizeDescentMatchesExhaustivePlan(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	// TrustRadius wide open: every probe extrapolates from the frozen
	// base fit, exactly as RunPlan does, so CPIs compare bit-for-bit.
	o := optimizeGrid(t, ObjectiveSpec{Kind: ObjectiveMinCPI}, SearchSpec{TrustRadius: 99})

	exhaustive, err := RunPlan(o.Plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	argmin := exhaustive.Points[0]
	for _, pt := range exhaustive.Points[1:] {
		if pt.ModelCPI < argmin.ModelCPI {
			argmin = pt
		}
	}

	res, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("min-cpi search returned no best point")
	}
	if res.Best.Machine != argmin.Machine {
		t.Errorf("optimizer argmin %s, exhaustive argmin %s", res.Best.Machine, argmin.Machine)
	}
	if res.Best.ModelCPI != argmin.ModelCPI || res.Best.SimCPI != argmin.SimCPI {
		t.Errorf("optimizer CPIs (%v, %v) not bit-identical to plan (%v, %v)",
			res.Best.ModelCPI, res.Best.SimCPI, argmin.ModelCPI, argmin.SimCPI)
	}
	if res.GridCells != 6 || res.Probes >= res.GridCells {
		t.Errorf("probes %d must beat exhaustive enumeration of %d cells", res.Probes, res.GridCells)
	}
	if res.Refits != 0 {
		t.Errorf("wide-open trust radius re-fitted %d times", res.Refits)
	}
	if !strings.Contains(res.Render(), "probes:") || !strings.Contains(res.Render(), "best:") {
		t.Errorf("render missing sections:\n%s", res.Render())
	}

	// The exhaustive plan already warmed the store for every cell, so
	// the probe phase was pure hits; only the base fit belongs to both.
	if res.Sims.Simulated != 0 || res.Sims.TraceGens != 0 {
		t.Errorf("optimize after plan should be store-warm: %+v", res.Sims)
	}

	// A rerun is deterministic and fully warm.
	again, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Sims.Simulated != 0 || again.Sims.TraceGens != 0 {
		t.Errorf("warm rerun simulated: %+v", again.Sims)
	}
	if again.Render() != res.Render() {
		t.Error("warm rerun output differs from cold")
	}
}

func TestOptimizeMinCostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	// A budget loose enough that every cell qualifies: the cheapest cell
	// outright — half the width, the slowest (cheapest) memory — wins.
	o := optimizeGrid(t, ObjectiveSpec{Kind: ObjectiveMinCost, CPISlack: 4.0}, SearchSpec{TrustRadius: 99})
	res, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPIBudget != res.BaseCPI*5 {
		t.Errorf("relative budget resolved to %v, want base %v × 5", res.CPIBudget, res.BaseCPI)
	}
	if res.Best == nil || !res.Best.Feasible {
		t.Fatalf("loose budget must yield a feasible best: %+v", res.Best)
	}
	if res.Best.Values[0] != 2 || res.Best.Values[1] != 300 {
		t.Errorf("cheapest cell is width=2 memlat=300, got %v", res.Best.Values)
	}
	// Cost proxy: width at half base (4→2) plus memlat inverted
	// (CostDown: 169/300), both relative to a base cost of 1 per axis.
	// Computed in float64 (not constant arithmetic) to match bit-for-bit.
	want := float64(2)/float64(4) + float64(169)/float64(300)
	if res.Best.Cost != want {
		t.Errorf("cost proxy %v, want %v", res.Best.Cost, want)
	}

	// An impossible budget leaves every probe infeasible — reported, not
	// hidden behind an arbitrary winner.
	o = optimizeGrid(t, ObjectiveSpec{Kind: ObjectiveMinCost, CPIBudget: 0.0001}, SearchSpec{TrustRadius: 99})
	res, err = RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Feasible {
		t.Errorf("impossible budget must report an infeasible best: %+v", res.Best)
	}
}

func TestOptimizeSuccessiveHalving(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	o := optimizeGrid(t, ObjectiveSpec{Kind: ObjectiveMinCPI},
		SearchSpec{Algorithm: SearchSuccessiveHalving, Rungs: 2, TrustRadius: 99})
	res, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two rungs: the whole 6-cell grid screened at half fidelity, the
	// better half promoted to full fidelity.
	if len(res.Rungs) != 1 || res.Rungs[0].Ops != 1000 || res.Rungs[0].Probes != 6 {
		t.Errorf("rungs %+v, want one 6-cell screen at 1000 µops", res.Rungs)
	}
	if res.Probes != 3 || res.Probes >= res.GridCells {
		t.Errorf("halving promoted %d cells to full fidelity, want 3 of %d", res.Probes, res.GridCells)
	}
	if res.Best == nil || res.Best.SimCPI <= 0 || res.Best.ModelCPI <= 0 {
		t.Fatalf("degenerate best point: %+v", res.Best)
	}

	// Reduced-fidelity screens key separately in the store, so a rerun
	// is pure hits at both fidelities.
	again, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Sims.Simulated != 0 || again.Sims.TraceGens != 0 {
		t.Errorf("warm halving rerun simulated: %+v", again.Sims)
	}
	if again.Best.Machine != res.Best.Machine || again.Best.ModelCPI != res.Best.ModelCPI {
		t.Errorf("warm rerun disagrees: %+v vs %+v", again.Best, res.Best)
	}
}

func TestOptimizeParetoFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	o := optimizeGrid(t, ObjectiveSpec{Kind: ObjectivePareto}, SearchSpec{TrustRadius: 99})
	res, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Error("pareto reports a frontier, not a single best")
	}
	if len(res.Frontier) < 2 {
		t.Fatalf("frontier has %d points, want the trade-off curve", len(res.Frontier))
	}
	// Sorted by CPI, mutually non-dominated: cost must strictly fall as
	// CPI rises.
	for i := 1; i < len(res.Frontier); i++ {
		p, q := res.Frontier[i-1], res.Frontier[i]
		if q.ModelCPI < p.ModelCPI {
			t.Errorf("frontier not sorted by CPI at %d: %v after %v", i, q.ModelCPI, p.ModelCPI)
		}
		if q.Cost >= p.Cost {
			t.Errorf("frontier point %d dominated: cost %v after %v", i, q.Cost, p.Cost)
		}
	}

	// The pure-CPI and pure-cost scalarizations anchor the endpoints:
	// the frontier must include the grid's global CPI argmin and the
	// globally cheapest cell (monotone axes place them at the corners).
	first, last := res.Frontier[0], res.Frontier[len(res.Frontier)-1]
	if first.Values[0] != 8 || first.Values[1] != 150 {
		t.Errorf("frontier CPI endpoint %v, want width=8 memlat=150", first.Values)
	}
	if last.Values[0] != 2 || last.Values[1] != 300 {
		t.Errorf("frontier cost endpoint %v, want width=2 memlat=300", last.Values)
	}
	// The shared probe memo means the scalarizations together still beat
	// enumerating the grid once per λ.
	if res.Probes > res.GridCells {
		t.Errorf("pareto probed %d cells on a %d-cell grid", res.Probes, res.GridCells)
	}
}

// TestOptimizeParetoSuccessiveHalving: every pareto scalarization runs
// its own successive-halving search, and the reduced-fidelity screen
// cache shares the rung screens among them, so the first rung screens
// each grid cell once in total, not once per scalarization.
func TestOptimizeParetoSuccessiveHalving(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	opts := Options{NumOps: 2000, FitStarts: 2}
	o := optimizeGrid(t, ObjectiveSpec{Kind: ObjectivePareto},
		SearchSpec{Algorithm: SearchSuccessiveHalving, Rungs: 2, TrustRadius: 99})
	res, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rungs) != 1 || res.Rungs[0].Probes != res.GridCells {
		t.Errorf("rungs %+v, want one screen of the %d-cell grid across %d scalarizations",
			res.Rungs, res.GridCells, o.Objective.Points)
	}
	if len(res.Frontier) == 0 || res.Probes > res.GridCells {
		t.Errorf("frontier of %d points from %d full-fidelity probes on %d cells",
			len(res.Frontier), res.Probes, res.GridCells)
	}
}

func TestOptimizeRefitBeyondTrustRadius(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	spec := OptimizeSpec{
		Base:      MachineSpec{Name: "core2"},
		Axes:      []PlanAxis{{Param: "rob", Values: []int{96, 192}}},
		Suite:     tinySuite(t),
		Objective: ObjectiveSpec{Kind: ObjectiveMinCPI},
		// rob=192 sits one doubling from the base 96: beyond this radius.
		Search: SearchSpec{TrustRadius: 0.5},
	}
	o, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Refits != 1 {
		t.Errorf("one probe beyond the radius, %d re-fits", tight.Refits)
	}

	spec.Search.TrustRadius = 99
	if o, err = spec.Resolve(); err != nil {
		t.Fatal(err)
	}
	wide, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Refits != 0 {
		t.Errorf("wide radius re-fitted %d times", wide.Refits)
	}
	// Both runs probe the same cells; when the doubled-ROB cell wins in
	// both, the re-fit must actually have changed its prediction.
	tb, wb := tight.Best, wide.Best
	if tb.Values[0] == 192 && !tb.Refit {
		t.Error("far cell not marked re-fitted under the tight radius")
	}
	if wb.Refit {
		t.Error("no cell should re-fit under the wide radius")
	}
	if tb.Values[0] == 192 && wb.Values[0] == 192 && tb.ModelCPI == wb.ModelCPI {
		t.Error("re-fit produced the same prediction as frozen extrapolation")
	}
	if tb.SimCPI != wb.SimCPI && tb.Values[0] == wb.Values[0] {
		t.Error("re-fit must not change the measured CPI")
	}
}
