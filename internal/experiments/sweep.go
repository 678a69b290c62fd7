package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// SweepSpec declares a one-axis sensitivity sweep: the base machine
// spec, the swept parameter, its values and the suite — cmd/sweep's
// flags as JSON, and the schema of POST /v1/sweep bodies and sweep job
// payloads. A sweep is a wire adapter over the plan engine: Resolve
// yields a one-axis Plan, and the sweep's report and text are
// projections of that plan's result, so every float is the plan's.
type SweepSpec struct {
	Base   MachineSpec `json:"base"`
	Param  string      `json:"param"`
	Values []int       `json:"values"`
	Suite  string      `json:"suite"`
}

// Resolve materializes the sweep into its validated one-axis plan.
func (sw SweepSpec) Resolve() (*Plan, error) {
	base, err := sw.Base.Resolve()
	if err != nil {
		return nil, err
	}
	return NewPlan(base, []PlanAxis{{Param: sw.Param, Values: sw.Values}}, sw.Suite)
}

// maxSweepValue caps every axis value. It matches the largest windows
// and latencies uarch.Machine.Validate accepts, and keeps l2kb's KB to
// bytes shift far from overflowing into a non-positive "keep base" size.
const maxSweepValue = 1 << 16

// validateSweepValues rejects value lists a sweep or plan axis cannot
// run: empty, non-positive (overrides treat zero as "keep base", which
// would silently mislabel the point as a second base run), above
// maxSweepValue, or duplicated (which would silently double-simulate
// the same cell).
// NewPlan checks every axis through here, so this is the single
// validation source for plans, sweeps and optimize grids on every
// surface.
func validateSweepValues(values []int) error {
	if len(values) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one value")
	}
	seen := map[int]bool{}
	for _, v := range values {
		if v <= 0 {
			return fmt.Errorf("experiments: sweep value %d must be positive", v)
		}
		if v > maxSweepValue {
			return fmt.Errorf("experiments: sweep value %d exceeds %d", v, maxSweepValue)
		}
		if seen[v] {
			return fmt.Errorf("experiments: sweep value %d listed twice", v)
		}
		seen[v] = true
	}
	return nil
}

// SweepPointReport is one swept configuration of a SweepReport.
type SweepPointReport struct {
	Value int `json:"value"`
	cellCPI
}

// SweepReport is the wire form of a one-axis sweep: the one JSON shape
// POST /v1/sweep responses, sweep job results and cmd/sweep's one-axis
// -json output share.
type SweepReport struct {
	Base      string             `json:"base"`
	Param     string             `json:"param"`
	BaseValue int                `json:"baseValue"`
	Suite     string             `json:"suite"`
	Ops       int                `json:"ops"`
	Points    []SweepPointReport `json:"points"`
}

// SweepReport projects a one-axis plan result into the sweep's wire
// form.
func (r *PlanResult) SweepReport() *SweepReport {
	rep := &SweepReport{Base: r.Base, Param: r.Axes[0].Param, BaseValue: r.BaseValues[0],
		Suite: r.Suite, Ops: r.NumOps}
	for _, p := range r.Points {
		rep.Points = append(rep.Points, SweepPointReport{Value: p.Values[0], cellCPI: p.cellCPI()})
	}
	return rep
}

// RenderSweep returns a one-axis plan result as the sweep's sensitivity
// tables: suite-mean simulated vs model-predicted CPI per swept value,
// then the per-component breakdown.
func (r *PlanResult) RenderSweep() string {
	var b strings.Builder
	param := r.Axes[0].Param
	fmt.Fprintf(&b, "sweep: %s %s on %s (%d µops/workload; model fitted at %s=%d)\n",
		r.Base, param, r.Suite, r.NumOps, param, r.BaseValues[0])
	fmt.Fprintf(&b, "  %8s %9s %10s %7s\n", param, "sim-CPI", "model-CPI", "err")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %8d %9.4f %10.4f %6.1f%%\n", p.Values[0], p.SimCPI, p.ModelCPI, 100*p.Err())
	}
	b.WriteString("\ncomponent sensitivity (suite-mean cycles/µop, simulated vs model):\n")
	// Only components that matter somewhere in the sweep get a column.
	var comps []sim.Component
	for _, c := range sim.Components() {
		for _, p := range r.Points {
			if p.SimStack.Cycles[c] >= 0.001 || p.ModelStack.Cycles[c] >= 0.001 {
				comps = append(comps, c)
				break
			}
		}
	}
	fmt.Fprintf(&b, "  %8s", param)
	for _, c := range comps {
		fmt.Fprintf(&b, " %17s", c)
	}
	b.WriteByte('\n')
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %8d", p.Values[0])
		for _, c := range comps {
			fmt.Fprintf(&b, "   %7.4f|%7.4f", p.SimStack.Cycles[c], p.ModelStack.Cycles[c])
		}
		b.WriteByte('\n')
	}
	b.WriteString("  (format: simulated|model)\n")
	return b.String()
}
