package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/uarch"
)

func TestNewPlanGridShape(t *testing.T) {
	base := uarch.CoreTwo()
	p, err := NewPlan(base, []PlanAxis{
		{Param: "rob", Values: []int{48, 96}},
		{Param: "memlat", Values: []int{150, 250, 350}},
	}, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != 6 || len(p.Machines) != 7 {
		t.Fatalf("grid shape: %d cells, %d machines; want 6 and 7", len(p.Cells), len(p.Machines))
	}
	if p.Machines[0] != base {
		t.Error("Machines[0] must be the base fit point")
	}
	// Row-major with the last axis fastest, composite names per cell.
	wantCells := [][2]int{{48, 150}, {48, 250}, {48, 350}, {96, 150}, {96, 250}, {96, 350}}
	for i, want := range wantCells {
		got := p.Cells[i]
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("cell %d = %v, want %v", i, got, want)
		}
		wantName := fmt.Sprintf("core2-rob%d-memlat%d", want[0], want[1])
		if p.Machines[1+i].Name != wantName {
			t.Errorf("cell %d machine %q, want %q", i, p.Machines[1+i].Name, wantName)
		}
		if p.Machines[1+i].ROBSize != want[0] || p.Machines[1+i].MemLat != want[1] {
			t.Errorf("cell %d overrides did not land: %+v", i, p.Machines[1+i])
		}
	}
	if bv := p.BaseValues(); len(bv) != 2 || bv[0] != base.ROBSize || bv[1] != base.MemLat {
		t.Errorf("BaseValues = %v", bv)
	}

	// A single-axis plan derives exactly the legacy sweep machine names.
	sp, err := NewPlan(base, []PlanAxis{{Param: "rob", Values: []int{48, 96, 192}}}, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []int{48, 96, 192} {
		if want := fmt.Sprintf("core2-rob%d", v); sp.Machines[1+i].Name != want {
			t.Errorf("single-axis machine %q, want %q", sp.Machines[1+i].Name, want)
		}
	}
}

func TestNewPlanValidation(t *testing.T) {
	base := uarch.CoreTwo()
	cases := []struct {
		name    string
		axes    []PlanAxis
		suite   string
		wantErr string
	}{
		{"no axes", nil, "cpu2000", "at least one axis"},
		{"no suite", []PlanAxis{{Param: "rob", Values: []int{64}}}, "", "needs a suite"},
		{"unknown param", []PlanAxis{{Param: "cores", Values: []int{2}}}, "cpu2000", "unknown sweep parameter"},
		{"duplicate axis", []PlanAxis{
			{Param: "rob", Values: []int{64}}, {Param: "rob", Values: []int{128}}}, "cpu2000", "twice"},
		{"empty values", []PlanAxis{{Param: "rob", Values: nil}}, "cpu2000", "at least one value"},
		{"duplicate values", []PlanAxis{{Param: "rob", Values: []int{64, 64}}}, "cpu2000", "listed twice"},
		{"non-positive value", []PlanAxis{{Param: "rob", Values: []int{0}}}, "cpu2000", "must be positive"},
		{"invalid cell", []PlanAxis{{Param: "l2kb", Values: []int{3}}}, "cpu2000", "derive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPlan(base, tc.axes, tc.suite)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("NewPlan error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}

	// The grid cap: 3 axes of 17 values would be 4913 > 4096 cells.
	wide := make([]int, 17)
	for i := range wide {
		wide[i] = 100 + i
	}
	_, err := NewPlan(base, []PlanAxis{
		{Param: "rob", Values: wide},
		{Param: "memlat", Values: wide},
		{Param: "mshrs", Values: wide},
	}, "cpu2000")
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized grid should hit the cell cap: %v", err)
	}

	// The cap is checked per axis, so a many-axis request whose total
	// product would overflow int64 (and wrap past a single final check)
	// is still rejected — cheaply, before any machine derives.
	huge := make([]int, 1500)
	for i := range huge {
		huge[i] = 100 + i
	}
	_, err = NewPlan(base, []PlanAxis{
		{Param: "rob", Values: huge},
		{Param: "memlat", Values: huge},
		{Param: "mshrs", Values: huge},
		{Param: "depth", Values: huge},
		{Param: "width", Values: huge},
		{Param: "l2kb", Values: huge},
	}, "cpu2000")
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("overflowing grid should hit the cell cap: %v", err)
	}
}

func TestParsePlanSpecStrict(t *testing.T) {
	good := []byte(`{
		"base": {"name": "core2"},
		"axes": [{"param": "rob", "values": [48, 96]}],
		"suite": "cpu2000"
	}`)
	ps, err := ParsePlanSpec(good)
	if err != nil || ps.Base.Name != "core2" || len(ps.Axes) != 1 || ps.Suite != "cpu2000" {
		t.Fatalf("ParsePlanSpec: %+v, %v", ps, err)
	}
	if _, err := ps.Resolve(); err != nil {
		t.Errorf("good spec should resolve: %v", err)
	}

	for name, doc := range map[string]string{
		"unknown field":   `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000", "cores": 4}`,
		"typoed axis key": `{"base": {"name": "core2"}, "axes": [{"parm": "rob", "values": [64]}], "suite": "cpu2000"}`,
		"trailing data":   `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000"} {}`,
		"trailing brace":  `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000"}}`,
		"trailing square": `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000"}]`,
		"no axes":         `{"base": {"name": "core2"}, "axes": [], "suite": "cpu2000"}`,
		"no suite":        `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}]}`,
	} {
		if _, err := ParsePlanSpec([]byte(doc)); err == nil {
			t.Errorf("%s should fail strict parsing", name)
		}
	}
}

// unsharedLabs simulates every machine in a single-machine lab of its
// own, so no workload is ever shared across machines and every run
// materializes its own trace instead of replaying a shared buffer. It
// returns the labs by machine name and their summed sourcing.
func unsharedLabs(t *testing.T, machines []*uarch.Machine, suite suites.Suite, opts Options) (map[string]*Lab, SimStats) {
	t.Helper()
	labs := make(map[string]*Lab, len(machines))
	var st SimStats
	for _, m := range machines {
		lab, err := NewCustomLab([]*uarch.Machine{m}, []suites.Suite{suite}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.Simulate(); err != nil {
			t.Fatal(err)
		}
		labs[m.Name] = lab
		st.add(lab.SimStats())
	}
	return labs, st
}

// legacyPoints is the pre-plan inline extrapolation loop: the model
// fitted on machines[0]'s lab, evaluated on every other machine's own
// runs. cells[i] labels machines[i+1].
func legacyPoints(t *testing.T, labs map[string]*Lab, machines []*uarch.Machine, cells [][]int, suiteName string) []PlanPoint {
	t.Helper()
	fitted, err := labs[machines[0].Name].Model(machines[0].Name, suiteName)
	if err != nil {
		t.Fatal(err)
	}
	var points []PlanPoint
	for ci, m := range machines[1:] {
		lab := labs[m.Name]
		extrap := &core.Model{Machine: m.Params(), P: fitted.P}
		obs, err := lab.Observations(m.Name, suiteName)
		if err != nil {
			t.Fatal(err)
		}
		pt := PlanPoint{Values: cells[ci], Machine: m.Name}
		n := float64(len(obs))
		for _, o := range obs {
			pt.SimCPI += o.MeasuredCPI / n
			pt.ModelCPI += extrap.PredictCPI(o.Feat) / n
			ms := extrap.Stack(o.Feat)
			r, err := lab.Run(m.Name, suiteName, o.Name)
			if err != nil {
				t.Fatal(err)
			}
			ts := r.Truth.CPIStack(r.Counters.Uops)
			for _, c := range sim.Components() {
				pt.SimStack.Cycles[c] += ts.Cycles[c] / n
				pt.ModelStack.Cycles[c] += ms.Cycles[c] / n
			}
		}
		points = append(points, pt)
	}
	return points
}

// legacySweep reimplements the pre-plan one-axis sweep path verbatim —
// explicit derived machines, generator-fed simulations (one
// single-machine lab per machine) and the inline extrapolation loop —
// as the reference the plan engine must match float-for-float. It
// returns the one-axis plan result the sweep report and text project
// from.
func legacySweep(t *testing.T, base *uarch.Machine, param string, values []int, suiteName string, opts Options) *PlanResult {
	t.Helper()
	p, err := SweepParamByName(param)
	if err != nil {
		t.Fatal(err)
	}
	machines := []*uarch.Machine{base}
	var cells [][]int
	for _, v := range values {
		d, err := uarch.Derive(base, fmt.Sprintf("%s-%s%d", base.Name, p.Name, v), p.Set(v))
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, d)
		cells = append(cells, []int{p.Get(d)})
	}
	suite, err := suites.ByName(suiteName, suites.Options{NumOps: opts.NumOps})
	if err != nil {
		t.Fatal(err)
	}
	labs, st := unsharedLabs(t, machines, suite, opts)
	if st.TraceGens != st.Simulated {
		t.Fatalf("reference generated %d streams for %d simulations, want one each", st.TraceGens, st.Simulated)
	}
	return &PlanResult{Base: base.Name, Axes: []PlanAxis{{Param: p.Name, Values: values}},
		BaseValues: []int{p.Get(base)}, Suite: suiteName, NumOps: labs[base.Name].NumOps(),
		Points: legacyPoints(t, labs, machines, cells, suiteName)}
}

// TestSingleAxisPlanMatchesLegacySweep is the sweep's bit-identity
// property: across every registered axis, the one-axis plan a SweepSpec
// resolves to (shared trace buffers included) must reproduce the legacy
// generator-fed sweep computation per-float, and so must the sweep
// report and text projected from it.
func TestSingleAxisPlanMatchesLegacySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("six fits are slow")
	}
	sn := tinySuite(t)
	base := uarch.CoreTwo()
	opts := Options{NumOps: 2000, FitStarts: 2}
	values := map[string][]int{
		"rob":    {48, 96},
		"mshrs":  {4, 8},
		"memlat": {150, 300},
		"depth":  {10, 18},
		"width":  {2, 4},
		"l2kb":   {1024, 4096},
	}
	for _, p := range SweepParams() {
		vals, ok := values[p.Name]
		if !ok {
			t.Fatalf("no test values for axis %q; extend the table", p.Name)
		}
		t.Run(p.Name, func(t *testing.T) {
			want := legacySweep(t, base, p.Name, vals, sn, opts)
			plan, err := NewPlan(base, []PlanAxis{{Param: p.Name, Values: vals}}, sn)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunPlan(plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Base != want.Base || got.BaseValues[0] != want.BaseValues[0] ||
				got.Suite != want.Suite || got.NumOps != want.NumOps ||
				got.Axes[0].Param != want.Axes[0].Param || len(got.Points) != len(want.Points) {
				t.Fatalf("sweep header differs: %+v vs %+v", got, want)
			}
			for i := range got.Points {
				g, w := got.Points[i], want.Points[i]
				if g.Values[0] != w.Values[0] || g.Machine != w.Machine {
					t.Fatalf("point %d identity differs: %+v vs %+v", i, g, w)
				}
				if g.SimCPI != w.SimCPI || g.ModelCPI != w.ModelCPI {
					t.Errorf("point %d CPIs differ: sim %v vs %v, model %v vs %v",
						i, g.SimCPI, w.SimCPI, g.ModelCPI, w.ModelCPI)
				}
				for _, c := range sim.Components() {
					if g.SimStack.Cycles[c] != w.SimStack.Cycles[c] ||
						g.ModelStack.Cycles[c] != w.ModelStack.Cycles[c] {
						t.Errorf("point %d component %s differs", i, c)
					}
				}
			}
			if got.RenderSweep() != want.RenderSweep() {
				t.Error("rendered sweep output differs from the legacy computation")
			}
			if !reflect.DeepEqual(got.SweepReport(), want.SweepReport()) {
				t.Error("sweep report differs from the legacy computation")
			}
		})
	}
}

// TestRunPlanSharedTraceStats pins the trace-replay economics: a cold
// grid generates each workload's stream once (not once per cell), a
// warm rerun generates none, and materializing every run's trace on
// its own pays one generation per simulation — all with bit-identical
// results.
func TestRunPlanSharedTraceStats(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	sn := tinySuite(t)
	base := uarch.CoreTwo()
	axes := []PlanAxis{
		{Param: "rob", Values: []int{48, 96}},
		{Param: "mshrs", Values: []int{4, 8}},
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	plan, err := NewPlan(base, axes, sn)
	if err != nil {
		t.Fatal(err)
	}
	const machines, workloads = 5, 12 // base + 2×2 cells; tinySuite size

	cold, err := RunPlan(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Simulated != machines*workloads || cold.Stats.Hits != 0 {
		t.Errorf("cold stats %+v, want %d simulated", cold.Stats, machines*workloads)
	}
	if cold.Stats.TraceGens != workloads {
		t.Errorf("cold plan generated %d traces, want one per workload (%d)",
			cold.Stats.TraceGens, workloads)
	}
	if len(cold.Points) != 4 {
		t.Fatalf("plan has %d points, want 4", len(cold.Points))
	}
	for _, pt := range cold.Points {
		if pt.SimCPI <= 0 || pt.ModelCPI <= 0 || pt.SimStack.Total() == 0 {
			t.Errorf("degenerate cell %+v", pt)
		}
	}

	warm, err := RunPlan(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Hits != machines*workloads || warm.Stats.Simulated != 0 || warm.Stats.TraceGens != 0 {
		t.Errorf("warm stats %+v, want pure hits and zero trace generations", warm.Stats)
	}
	if warm.Render() != cold.Render() {
		t.Error("warm plan output differs from cold")
	}

	// Regenerating every stream instead — one single-machine lab per
	// machine on a fresh store — must agree float-for-float while paying
	// one generation per simulation.
	regenOpts := opts
	if regenOpts.Store, err = runstore.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	suite, err := suites.ByName(sn, suites.Options{NumOps: opts.NumOps})
	if err != nil {
		t.Fatal(err)
	}
	labs, regenStats := unsharedLabs(t, plan.Machines, suite, regenOpts)
	if regenStats.TraceGens != machines*workloads {
		t.Errorf("unshared plan generated %d traces, want %d", regenStats.TraceGens, machines*workloads)
	}
	regen := legacyPoints(t, labs, plan.Machines, plan.Cells, sn)
	for i := range cold.Points {
		g, w := regen[i], cold.Points[i]
		if g.SimCPI != w.SimCPI || g.ModelCPI != w.ModelCPI {
			t.Errorf("cell %d: shared vs regenerated traces disagree: %+v vs %+v", i, g, w)
		}
	}
}

// TestRunPlanDeterministicAcrossWorkers pins the cell-parallel
// execution model: the same plan run with one worker, with an
// oversubscribed pool (more workers than the host has cores), and with
// that pool squeezed onto a single P via GOMAXPROCS must agree
// float-for-float per cell and byte-for-byte in rendered output —
// scheduling must never leak into results. CI runs this under -race,
// so it doubles as the race check on the materializer/worker buffer
// hand-off. make sim-nondeterminism asserts the same property
// end-to-end through cmd/sweep and the run store.
func TestRunPlanDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation is slow")
	}
	sn := tinySuite(t)
	base := uarch.CoreTwo()
	axes := []PlanAxis{
		{Param: "rob", Values: []int{48, 96}},
		{Param: "mshrs", Values: []int{4, 8}},
	}
	plan, err := NewPlan(base, axes, sn)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *PlanResult {
		t.Helper()
		res, err := RunPlan(plan, Options{NumOps: 2000, FitStarts: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	prev := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name     string
		workers  int
		maxProcs int
	}{
		{"oversubscribed pool", 8, prev},
		{"pool on a single P", 8, 1},
		// Past-4-cores check: more Ps than the host's cores, with a
		// worker pool sized to saturate them — scheduling at high
		// GOMAXPROCS must leak into results no more than at 1.
		{"high GOMAXPROCS", 16, 4 * prev},
	} {
		runtime.GOMAXPROCS(tc.maxProcs)
		got := run(tc.workers)
		runtime.GOMAXPROCS(prev)
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%s: %d cells, want %d", tc.name, len(got.Points), len(want.Points))
		}
		for i := range got.Points {
			g, w := got.Points[i], want.Points[i]
			if g.Machine != w.Machine || g.SimCPI != w.SimCPI || g.ModelCPI != w.ModelCPI {
				t.Errorf("%s: cell %d differs from the single-worker run: %+v vs %+v",
					tc.name, i, g, w)
			}
			for _, c := range sim.Components() {
				if g.SimStack.Cycles[c] != w.SimStack.Cycles[c] ||
					g.ModelStack.Cycles[c] != w.ModelStack.Cycles[c] {
					t.Errorf("%s: cell %d component %s differs", tc.name, i, c)
				}
			}
		}
		if got.Render() != want.Render() {
			t.Errorf("%s: rendered plan differs from the single-worker run", tc.name)
		}
	}
}
