package experiments

import (
	"strings"
	"testing"

	"repro/internal/runstore"
	"repro/internal/uarch"
)

func TestSweepParamByName(t *testing.T) {
	for _, p := range SweepParams() {
		got, err := SweepParamByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Errorf("%s: %v", p.Name, err)
		}
		base := uarch.CoreTwo()
		if v := p.Get(base); v <= 0 {
			t.Errorf("%s: base value %d", p.Name, v)
		}
		d, err := uarch.Derive(base, "x-"+p.Name, p.Set(p.Get(base)*2))
		if err != nil {
			t.Errorf("%s: derive: %v", p.Name, err)
		} else if p.Get(d) != p.Get(base)*2 {
			t.Errorf("%s: override did not land (%d vs %d)", p.Name, p.Get(d), p.Get(base)*2)
		}
	}
	_, err := SweepParamByName("cores")
	if err == nil || !strings.Contains(err.Error(), "rob") {
		t.Errorf("unknown param error should list valid names: %v", err)
	}
}

// runSweep runs a sweep the way every surface does: the spec resolved
// to its one-axis plan, executed by the plan engine.
func runSweep(spec SweepSpec, opts Options) (*PlanResult, error) {
	plan, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	return RunPlan(plan, opts)
}

func TestRunSweepIncrementalThroughStore(t *testing.T) {
	sn := tinySuite(t)
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 3000, FitStarts: 2, Store: store}
	spec := SweepSpec{Base: MachineSpec{Name: "core2"}, Param: "mshrs", Values: []int{1, 4, 8}, Suite: sn}

	cold, err := runSweep(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 4 machines (base + 3 points) × 12 workloads, all simulated cold.
	if cold.Stats.Hits != 0 || cold.Stats.Simulated != 48 {
		t.Errorf("cold stats %+v, want 0 hits / 48 simulated", cold.Stats)
	}
	if len(cold.Points) != 3 || cold.BaseValues[0] != 8 {
		t.Fatalf("sweep shape wrong: %+v", cold)
	}
	for _, p := range cold.Points {
		if p.SimCPI <= 0 || p.ModelCPI <= 0 {
			t.Errorf("point %d: degenerate CPIs %+v", p.Values[0], p)
		}
		if p.SimStack.Total() == 0 {
			t.Errorf("point %d: empty ground-truth stack", p.Values[0])
		}
	}
	// Starving MSHRs must hurt: simulated CPI at 1 MSHR strictly above 8.
	if !(cold.Points[0].SimCPI > cold.Points[2].SimCPI) {
		t.Errorf("MSHR starvation should raise CPI: %+v", cold.Points)
	}

	warm, err := runSweep(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Hits != 48 || warm.Stats.Simulated != 0 {
		t.Errorf("warm stats %+v, want 48 hits / 0 simulated", warm.Stats)
	}
	if warm.RenderSweep() != cold.RenderSweep() {
		t.Error("warm sweep output differs from cold")
	}

	text := cold.RenderSweep()
	for _, want := range []string{"model fitted at mshrs=8", "sim-CPI", "llc-load", "simulated|model"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered sweep missing %q:\n%s", want, text)
		}
	}
}

func TestRunSweepRejectsBadInput(t *testing.T) {
	opts := Options{NumOps: 1000}
	sweep := func(param string, values []int, suite string) error {
		_, err := runSweep(SweepSpec{Base: MachineSpec{Name: "core2"}, Param: param, Values: values, Suite: suite}, opts)
		return err
	}
	if err := sweep("cores", []int{1}, "cpu2000"); err == nil {
		t.Error("unknown param should fail")
	}
	if err := sweep("rob", nil, "cpu2000"); err == nil {
		t.Error("empty values should fail")
	}
	if err := sweep("rob", []int{64, 64}, "cpu2000"); err == nil {
		t.Error("duplicate values should fail")
	}
	if err := sweep("rob", []int{0, 64}, "cpu2000"); err == nil {
		t.Error("non-positive value should fail (zero override would mislabel a base rerun)")
	}
	if err := sweep("rob", []int{64}, "cpu2017"); err == nil {
		t.Error("unknown suite should fail")
	}
	if err := sweep("l2kb", []int{3}, "cpu2000"); err == nil {
		t.Error("geometrically invalid derived machine should fail")
	}
}
