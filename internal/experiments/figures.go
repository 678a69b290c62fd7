package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ann"
	"repro/internal/calibrator"
	"repro/internal/core"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// Table1 renders the machine descriptions (the paper's Table 1).
func (l *Lab) Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: simulated processor configurations\n")
	// Column width follows the longest campaign machine name (derived
	// variants often exceed the stock names' 10 characters).
	width := 10
	for _, m := range l.machines {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	fmt.Fprintf(&b, "  %-14s", "")
	for _, m := range l.machines {
		fmt.Fprintf(&b, " %*s", width, m.Name)
	}
	b.WriteByte('\n')
	row := func(label string, f func(m *uarch.Machine) string) {
		fmt.Fprintf(&b, "  %-14s", label)
		for _, m := range l.machines {
			fmt.Fprintf(&b, " %*s", width, f(m))
		}
		b.WriteByte('\n')
	}
	row("L1 I-cache", func(m *uarch.Machine) string { return fmt.Sprintf("%dKB", m.L1I.SizeBytes>>10) })
	row("L1 D-cache", func(m *uarch.Machine) string { return fmt.Sprintf("%dKB", m.L1D.SizeBytes>>10) })
	row("L2 cache", func(m *uarch.Machine) string {
		if m.L2.SizeBytes >= 1<<20 {
			return fmt.Sprintf("%dMB", m.L2.SizeBytes>>20)
		}
		return fmt.Sprintf("%dKB", m.L2.SizeBytes>>10)
	})
	row("L3 cache", func(m *uarch.Machine) string {
		if !m.HasL3() {
			return "—"
		}
		return fmt.Sprintf("%dMB", m.L3.SizeBytes>>20)
	})
	row("ROB / IQ", func(m *uarch.Machine) string { return fmt.Sprintf("%d/%d", m.ROBSize, m.IQSize) })
	row("predictor", func(m *uarch.Machine) string { return m.Predictor.Kind.String() })
	row("fusion rate", func(m *uarch.Machine) string { return fmt.Sprintf("%.2f", m.FusionRate) })
	return b.String()
}

// Table2Result holds calibrated vs. configured latencies per machine.
type Table2Result struct {
	Machine    string
	Configured uarch.ModelParams
	Measured   uarch.ModelParams
}

// Table2 runs the calibrator on each machine and compares against the
// configured values (the paper's Table 2, produced the paper's way:
// width and depth from the spec, latencies from microbenchmarks).
func (l *Lab) Table2() ([]Table2Result, string, error) {
	var out []Table2Result
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: micro-architecture parameters (calibrated via microbenchmarks)\n")
	fmt.Fprintf(&b, "  %-10s %6s %6s %9s %9s %9s %9s\n",
		"platform", "width", "depth", "L2", "L3", "mem", "TLB")
	for _, m := range l.machines {
		res, err := calibrator.Calibrate(m)
		if err != nil {
			return nil, "", err
		}
		meas := res.Estimates.Params(m)
		out = append(out, Table2Result{Machine: m.Name, Configured: m.Params(), Measured: meas})
		cell := func(measured, configured int) string {
			if configured == 0 && measured == 0 {
				return "—"
			}
			return fmt.Sprintf("%d(%d)", measured, configured)
		}
		cfg := m.Params()
		fmt.Fprintf(&b, "  %-10s %6d %6d %9s %9s %9s %9s\n",
			m.Name, meas.DispatchWidth, meas.FrontEndDepth,
			cell(meas.L2Lat, cfg.L2Lat), cell(meas.L3Lat, cfg.L3Lat),
			cell(meas.MemLat, cfg.MemLat), cell(meas.TLBLat, cfg.TLBLat))
	}
	b.WriteString("  (format: measured(configured) cycles)\n")
	return out, b.String(), nil
}

// Fig2Panel is one suite×machine accuracy panel of Figure 2.
type Fig2Panel struct {
	Suite, Machine string
	Points         []stack.ScatterPoint
	MARE           float64
	MaxErr         float64
	FracBelow20    float64
}

// Fig2 fits a model per (machine, suite) — no cross-validation — and
// reports measured-vs-predicted CPI per workload. Paper expectations:
// average error ≈10%, max ≈35%, ≥90% of benchmarks below 20%.
func (l *Lab) Fig2() ([]Fig2Panel, string, error) {
	var panels []Fig2Panel
	var b strings.Builder
	b.WriteString("Figure 2: measured vs predicted CPI (no cross-validation)\n\n")
	for _, suite := range l.SuiteNames() {
		for _, m := range l.machines {
			model, err := l.Model(m.Name, suite)
			if err != nil {
				return nil, "", err
			}
			obs, err := l.Observations(m.Name, suite)
			if err != nil {
				return nil, "", err
			}
			ws, acc := Score(model, obs)
			panel := Fig2Panel{Suite: suite, Machine: m.Name,
				MARE: acc.AvgRelErr, MaxErr: acc.MaxRelErr, FracBelow20: acc.FracBelow20Pct}
			for _, w := range ws {
				panel.Points = append(panel.Points, stack.ScatterPoint{
					Name: w.Workload, Measured: w.MeasuredCPI, Predicted: w.PredictedCPI,
				})
			}
			panels = append(panels, panel)

			b.WriteString(stack.RenderScatter(
				fmt.Sprintf("%s -- %s: avg err %.1f%%, max %.1f%%, %.0f%% of benchmarks < 20%%",
					suite, m.Name, 100*panel.MARE, 100*panel.MaxErr, 100*panel.FracBelow20),
				panel.Points, 24))
			b.WriteByte('\n')
		}
	}
	return panels, b.String(), nil
}

// Fig3Result holds the robustness comparison for one machine: absolute
// relative errors on CPU2006 of the model trained on CPU2006 (in-suite)
// vs. the model trained on CPU2000 (transferred).
type Fig3Result struct {
	Machine      string
	InSuiteErrs  []float64 // CPU2006 model on CPU2006
	TransferErrs []float64 // CPU2000 model on CPU2006
	InSuiteMARE  float64
	TransferMARE float64
}

// Fig3 evaluates model robustness: the CPU2000-trained model should be
// only slightly less accurate on CPU2006 than the CPU2006-trained model.
func (l *Lab) Fig3() ([]Fig3Result, string, error) {
	var out []Fig3Result
	var b strings.Builder
	b.WriteString("Figure 3: robustness — CPU2000 vs CPU2006 models evaluated on CPU2006\n\n")
	for _, m := range l.machines {
		inModel, err := l.Model(m.Name, "cpu2006")
		if err != nil {
			return nil, "", err
		}
		trModel, err := l.Model(m.Name, "cpu2000")
		if err != nil {
			return nil, "", err
		}
		obs, err := l.Observations(m.Name, "cpu2006")
		if err != nil {
			return nil, "", err
		}
		r := Fig3Result{Machine: m.Name}
		for _, o := range obs {
			r.InSuiteErrs = append(r.InSuiteErrs, stats.RelErr(inModel.PredictCPI(o.Feat), o.MeasuredCPI))
			r.TransferErrs = append(r.TransferErrs, stats.RelErr(trModel.PredictCPI(o.Feat), o.MeasuredCPI))
		}
		r.InSuiteMARE = stats.Mean(r.InSuiteErrs)
		r.TransferMARE = stats.Mean(r.TransferErrs)
		out = append(out, r)
		b.WriteString(stack.RenderCDF(
			fmt.Sprintf("%s (avg: cpu2006 model %.1f%%, cpu2000 model %.1f%%)",
				m.Name, 100*r.InSuiteMARE, 100*r.TransferMARE),
			map[string][]float64{
				"cpu2006 model": r.InSuiteErrs,
				"cpu2000 model": r.TransferErrs,
			}))
		b.WriteByte('\n')
	}
	return out, b.String(), nil
}

// Fig4Cell is one model-type average error in one panel of Figure 4.
type Fig4Cell struct {
	TrainSuite, EvalSuite, Machine string
	Mechanistic, Linear, ANN       float64 // MAREs
}

// Fig4 compares the mechanistic-empirical model against linear regression
// and an ANN on identical inputs, with and without cross-validation.
// Paper expectation: comparable without cross-validation, ME clearly best
// with it (the empirical models overfit).
func (l *Lab) Fig4() ([]Fig4Cell, string, error) {
	var cells []Fig4Cell
	combos := []struct{ train, eval string }{
		{"cpu2000", "cpu2000"}, // (a) no cross-validation
		{"cpu2006", "cpu2006"},
		{"cpu2006", "cpu2000"}, // (b) cross-validation
		{"cpu2000", "cpu2006"},
	}
	for _, cb := range combos {
		for _, m := range l.machines {
			cell := Fig4Cell{TrainSuite: cb.train, EvalSuite: cb.eval, Machine: m.Name}
			trainObs, err := l.Observations(m.Name, cb.train)
			if err != nil {
				return nil, "", err
			}
			evalObs, err := l.Observations(m.Name, cb.eval)
			if err != nil {
				return nil, "", err
			}
			meas := make([]float64, len(evalObs))
			for i, o := range evalObs {
				meas[i] = o.MeasuredCPI
			}

			// Mechanistic-empirical.
			meModel, err := l.Model(m.Name, cb.train)
			if err != nil {
				return nil, "", err
			}
			_, acc := Score(meModel, evalObs)
			cell.Mechanistic = acc.AvgRelErr

			// Linear regression on the same inputs.
			X := make([][]float64, len(trainObs))
			y := make([]float64, len(trainObs))
			for i, o := range trainObs {
				X[i] = o.Feat.Vector()
				y[i] = o.MeasuredCPI
			}
			lin, err := regress.FitLinearRelative(X, y)
			if err != nil {
				return nil, "", err
			}
			linPred := make([]float64, len(evalObs))
			for i, o := range evalObs {
				linPred[i] = lin.Predict(o.Feat.Vector())
			}
			cell.Linear = stats.MARE(linPred, meas)

			// ANN on the same inputs (paper topology: one tanh hidden
			// layer, linear output).
			net, err := ann.Train(X, y, ann.Options{Hidden: 8, Epochs: 3000, Seed: 7})
			if err != nil {
				return nil, "", err
			}
			annPred := make([]float64, len(evalObs))
			for i, o := range evalObs {
				annPred[i] = net.Predict(o.Feat.Vector())
			}
			cell.ANN = stats.MARE(annPred, meas)

			cells = append(cells, cell)
		}
	}

	var b strings.Builder
	b.WriteString("Figure 4: mechanistic-empirical vs purely empirical models (avg CPI error)\n")
	for _, cb := range combos {
		label := "no cross-validation"
		if cb.train != cb.eval {
			label = "cross-validation"
		}
		fmt.Fprintf(&b, "\n%s model on %s (%s):\n", cb.train, cb.eval, label)
		fmt.Fprintf(&b, "  %-10s %14s %14s %14s\n", "machine", "mech-empirical", "neural net", "linear regr")
		for _, c := range cells {
			if c.TrainSuite == cb.train && c.EvalSuite == cb.eval {
				fmt.Fprintf(&b, "  %-10s %13.1f%% %13.1f%% %13.1f%%\n",
					c.Machine, 100*c.Mechanistic, 100*c.ANN, 100*c.Linear)
			}
		}
	}
	return cells, b.String(), nil
}

// Fig5Result reports per-CPI-component accuracy of the model against the
// simulator's ground-truth interval accounting.
type Fig5Result struct {
	Machine string
	// MAREByComp is the mean per-component error normalized by the
	// workload's *total* CPI (|predicted_c − actual_c| / CPI_total),
	// averaged over the workloads where the component is significant
	// (>1% of CPI) — the paper's Figure 5 metric, which reports e.g.
	// "9.2% error" for the LLC component as a share of overall CPI.
	MAREByComp map[sim.Component]float64
	Samples    map[sim.Component]int
}

// Fig5 validates individual CPI components against the ground truth
// (the paper validates against the ASPLOS'06 counter architecture in
// SimpleScalar; here the FMT-style accounting plays that role). Paper
// expectation: LLC-load is the hardest component (crude MLP proxy),
// resource stalls second.
func (l *Lab) Fig5(machine, suite string) (*Fig5Result, string, error) {
	model, err := l.Model(machine, suite)
	if err != nil {
		return nil, "", err
	}
	obs, err := l.Observations(machine, suite)
	if err != nil {
		return nil, "", err
	}
	s, _ := l.Suite(suite)

	res := &Fig5Result{
		Machine:    machine,
		MAREByComp: map[sim.Component]float64{},
		Samples:    map[sim.Component]int{},
	}
	sums := map[sim.Component]float64{}
	var example string
	for _, w := range s.Workloads {
		run, err := l.Run(machine, suite, w.Name)
		if err != nil {
			return nil, "", err
		}
		var o *core.Observation
		for i := range obs {
			if obs[i].Name == w.Name {
				o = &obs[i]
				break
			}
		}
		if o == nil {
			return nil, "", fmt.Errorf("experiments: observation for %s missing", w.Name)
		}
		pred := model.Stack(o.Feat)
		truth := run.Truth.CPIStack(run.Counters.Uops)
		total := truth.Total()
		for _, c := range sim.Components() {
			if truth.Cycles[c] < 0.01*total {
				continue // insignificant component
			}
			sums[c] += math.Abs(pred.Cycles[c]-truth.Cycles[c]) / total
			res.Samples[c]++
		}
		if example == "" && truth.Cycles[sim.CompLLCLoad] > 0.05*total {
			example = stack.RenderComparison(
				fmt.Sprintf("example workload %s on %s:", w.Name, machine), pred, truth)
		}
	}
	for c, s := range sums {
		res.MAREByComp[c] = s / float64(res.Samples[c])
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: CPI-component accuracy vs ground-truth accounting (%s, %s)\n",
		machine, suite)
	comps := sim.Components()
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	fmt.Fprintf(&b, "  %-11s %10s %9s\n", "component", "avg error", "samples")
	for _, c := range comps {
		if n := res.Samples[c]; n > 0 {
			fmt.Fprintf(&b, "  %-11s %9.1f%% %9d\n", c, 100*res.MAREByComp[c], n)
		}
	}
	if example != "" {
		b.WriteByte('\n')
		b.WriteString(example)
	}
	return res, b.String(), nil
}

// Fig6 builds the CPI-delta stacks for the two generation steps on both
// suites (six panels in the paper: overall/branch/LLC × two comparisons,
// for each suite).
func (l *Lab) Fig6() (map[string]*core.DeltaStacks, string, error) {
	out := map[string]*core.DeltaStacks{}
	var b strings.Builder
	b.WriteString("Figure 6: CPI-delta stacks (negative = newer machine faster)\n\n")
	pairs := []struct{ oldM, newM string }{
		{"pentium4", "core2"},
		{"core2", "corei7"},
	}
	for _, suite := range l.SuiteNames() {
		for _, p := range pairs {
			oldModel, err := l.Model(p.oldM, suite)
			if err != nil {
				return nil, "", err
			}
			newModel, err := l.Model(p.newM, suite)
			if err != nil {
				return nil, "", err
			}
			oldRuns, err := l.MachineRuns(p.oldM, suite)
			if err != nil {
				return nil, "", err
			}
			newRuns, err := l.MachineRuns(p.newM, suite)
			if err != nil {
				return nil, "", err
			}
			d, err := core.ComputeDelta(p.oldM, oldModel, oldRuns, p.newM, newModel, newRuns)
			if err != nil {
				return nil, "", err
			}
			key := suite + ":" + p.oldM + "->" + p.newM
			out[key] = d
			fmt.Fprintf(&b, "=== %s ===\n%s\n", key, stack.RenderDelta(d))
		}
	}
	return out, b.String(), nil
}
