// Cross-module integration tests: the full pipeline from workload
// generation through simulation, calibration, model fitting and stack
// construction, exercised end-to-end with the public flows the examples
// and CLIs use.
package repro

import (
	"math"
	"testing"

	"repro/internal/calibrator"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// pipeline runs a suite subset on a machine and fits a model using
// calibrated (not configured) latencies — the paper's full Figure 1 flow.
func pipeline(t *testing.T, m *uarch.Machine, numOps, stride int) (*core.Model, []core.Observation) {
	t.Helper()
	cal, err := calibrator.Calibrate(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(m)
	if err != nil {
		t.Fatal(err)
	}
	suite := suites.CPU2000Like(suites.Options{NumOps: numOps})
	var obs []core.Observation
	for i, w := range suite.Workloads {
		if i%stride != 0 {
			continue
		}
		r, err := s.Run(trace.Materialize(w))
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.ObservationFrom(w.Name, &r.Counters)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
	}
	model, err := core.Fit(cal.Estimates.Params(m), obs, core.FitOptions{Starts: 8})
	if err != nil {
		t.Fatal(err)
	}
	return model, obs
}

func TestFullPipelineWithCalibratedLatencies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	model, obs := pipeline(t, uarch.CoreTwo(), 60000, 2)
	pred := model.PredictAll(obs)
	meas := make([]float64, len(obs))
	for i := range obs {
		meas[i] = obs[i].MeasuredCPI
	}
	if mare := stats.MARE(pred, meas); mare > 0.20 {
		t.Errorf("calibrated-parameter pipeline MARE %.1f%%, want < 20%%", 100*mare)
	}
	// Stacks must decompose the prediction exactly.
	for _, o := range obs[:5] {
		st := model.Stack(o.Feat)
		if math.Abs(st.Total()-model.PredictCPI(o.Feat)) > 1e-9 {
			t.Errorf("%s: stack does not sum to prediction", o.Name)
		}
	}
}

func TestWholePipelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	m1, obs1 := pipeline(t, uarch.CoreI7(), 30000, 5)
	m2, obs2 := pipeline(t, uarch.CoreI7(), 30000, 5)
	if m1.P != m2.P {
		t.Errorf("fitted parameters differ across identical pipelines:\n%+v\n%+v", m1.P, m2.P)
	}
	for i := range obs1 {
		if obs1[i].MeasuredCPI != obs2[i].MeasuredCPI {
			t.Fatalf("measured CPI differs for %s", obs1[i].Name)
		}
	}
}

func TestModelStackTracksGroundTruthTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	// The model's predicted total CPI must track the simulator's measured
	// total on the training workloads (that is what the fit optimizes);
	// spot-check the agreement workload by workload.
	m := uarch.CoreTwo()
	s, err := sim.New(m)
	if err != nil {
		t.Fatal(err)
	}
	suite := suites.CPU2006Like(suites.Options{NumOps: 60000})
	var obs []core.Observation
	truthTotals := map[string]float64{}
	for i, w := range suite.Workloads {
		if i%3 != 0 {
			continue
		}
		r, err := s.Run(trace.Materialize(w))
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.ObservationFrom(w.Name, &r.Counters)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
		ts := r.Truth.CPIStack(r.Counters.Uops)
		truthTotals[w.Name] = ts.Total()
	}
	model, err := core.Fit(m.Params(), obs, core.FitOptions{Starts: 8})
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, o := range obs {
		if stats.RelErr(model.PredictCPI(o.Feat), truthTotals[o.Name]) > 0.35 {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(obs)); frac > 0.25 {
		t.Errorf("%.0f%% of workloads deviate >35%% from ground-truth totals", 100*frac)
	}
}

func TestCharacterizationOnSimulatedSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	model, obs := pipeline(t, uarch.PentiumFour(), 40000, 4)
	chars := core.Characterize(model, obs)
	if len(chars) != len(obs) {
		t.Fatalf("characterized %d of %d workloads", len(chars), len(obs))
	}
	seen := map[string]bool{}
	for _, c := range chars {
		if seen[c.Name] {
			t.Errorf("duplicate characterization for %s", c.Name)
		}
		seen[c.Name] = true
		if c.PredictedCPI <= 0 {
			t.Errorf("%s: non-positive predicted CPI", c.Name)
		}
	}
	// On the deep-pipelined P4 at short run lengths, branch and memory
	// dominate; the classifier must at least spread workloads across more
	// than one bottleneck class.
	classes := map[sim.Component]bool{}
	for _, c := range chars {
		classes[c.Dominant] = true
	}
	if len(classes) < 2 {
		t.Errorf("all workloads classified identically (%v)", classes)
	}
}
