package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// PlanAxis is one explored axis of a plan: a registered sweep parameter
// (see SweepParams) and the values it takes. Values must be positive
// and unique — a duplicated value would silently double-simulate the
// same cell, so validation rejects it on both the CLI and wire paths.
type PlanAxis struct {
	Param  string `json:"param"`
	Values []int  `json:"values"`
}

// PlanSpec is the declarative form of a multi-axis exploration plan:
// the JSON schema of plan files, POST /v1/plan bodies, and plan job
// payloads. Axes are crossed into a full grid of derived machines; the
// model is fitted once at the base configuration and extrapolated to
// every cell — the paper's design-space-exploration use case as one
// request.
type PlanSpec struct {
	Base  MachineSpec `json:"base"`
	Axes  []PlanAxis  `json:"axes"`
	Suite string      `json:"suite"`
}

// MaxPlanCells bounds the grid a single plan may expand to. The cap
// protects the serving layer from a three-axis typo exploding into
// millions of simulations; genuinely larger explorations should be
// split into plans per sub-grid, which the run store then makes
// incremental anyway.
const MaxPlanCells = 4096

// ParsePlanSpec decodes a plan document with the scenario-file rules:
// unknown fields and trailing data are errors.
func ParsePlanSpec(data []byte) (PlanSpec, error) {
	var ps PlanSpec
	if err := DecodeStrict(bytes.NewReader(data), &ps); err != nil {
		return PlanSpec{}, fmt.Errorf("experiments: parse plan: %w", err)
	}
	if len(ps.Axes) == 0 {
		return PlanSpec{}, fmt.Errorf("experiments: plan has no axes")
	}
	if ps.Suite == "" {
		return PlanSpec{}, fmt.Errorf("experiments: plan has no suite")
	}
	return ps, nil
}

// LoadPlanSpec reads and parses a plan file.
func LoadPlanSpec(path string) (PlanSpec, error) { return loadFile(path, ParsePlanSpec) }

// Resolve materializes the spec into a validated Plan: the base machine
// through the uarch registry, every axis through the sweep-param table,
// and the full cross product into derived machines.
func (ps PlanSpec) Resolve() (*Plan, error) {
	base, err := ps.Base.Resolve()
	if err != nil {
		return nil, err
	}
	return NewPlan(base, ps.Axes, ps.Suite)
}

// Plan is a validated, fully resolved exploration grid. Machines[0] is
// the base (fit point); Machines[1+i] is the derived machine of
// Cells[i]. Cells enumerate the axis cross product row-major with the
// last axis fastest, each cell holding one value per axis in Axes
// order; a single-axis plan — a sweep — therefore lists its cells in
// the axis's value order.
type Plan struct {
	Base  *uarch.Machine
	Axes  []PlanAxis
	Suite string

	Machines []*uarch.Machine
	Cells    [][]int

	params []SweepParam // resolved axis params, aligned with Axes
}

// BaseValues returns the base machine's value on each axis, in axis
// order — the fit point of the grid.
func (p *Plan) BaseValues() []int {
	out := make([]int, len(p.params))
	for i, sp := range p.params {
		out[i] = sp.Get(p.Base)
	}
	return out
}

// NewPlan validates the axes against the sweep-param table and expands the
// cross product into derived machines. Every axis must be a known
// param with positive, duplicate-free values; axes must not repeat; and
// the grid must stay within MaxPlanCells. Derivations are validated, so
// a geometrically impossible cell fails here, before anything
// simulates.
func NewPlan(base *uarch.Machine, axes []PlanAxis, suiteName string) (*Plan, error) {
	if suiteName == "" {
		return nil, fmt.Errorf("experiments: plan needs a suite")
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("experiments: plan needs at least one axis")
	}
	p := &Plan{Base: base, Axes: axes, Suite: suiteName}
	cells := 1
	seen := map[string]bool{}
	for _, ax := range axes {
		sp, err := SweepParamByName(ax.Param)
		if err != nil {
			return nil, err
		}
		if seen[ax.Param] {
			return nil, fmt.Errorf("experiments: plan lists axis %q twice", ax.Param)
		}
		seen[ax.Param] = true
		if err := validateSweepValues(ax.Values); err != nil {
			return nil, fmt.Errorf("%w (axis %s)", err, ax.Param)
		}
		p.params = append(p.params, sp)
		// Capping inside the loop keeps the running product small, so
		// a many-axis request cannot overflow it past the check.
		cells *= len(ax.Values)
		if cells > MaxPlanCells {
			return nil, fmt.Errorf("experiments: plan grid exceeds the %d-cell cap", MaxPlanCells)
		}
	}

	p.Machines = make([]*uarch.Machine, 0, 1+cells)
	p.Machines = append(p.Machines, base)
	p.Cells = make([][]int, 0, cells)
	idx := make([]int, len(axes))
	for {
		values := make([]int, len(axes))
		m, name := base, base.Name
		for i, ax := range axes {
			v := ax.Values[idx[i]]
			values[i] = v
			name = fmt.Sprintf("%s-%s%d", name, p.params[i].Name, v)
			var err error
			if m, err = uarch.Derive(m, name, p.params[i].Set(v)); err != nil {
				return nil, err
			}
		}
		p.Cells = append(p.Cells, values)
		p.Machines = append(p.Machines, m)

		// Advance the odometer, last axis fastest.
		k := len(axes) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(axes[k].Values) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return p, nil
}

// PlanPoint is one evaluated grid cell: its axis values (in plan-axis
// order), the derived machine, and the suite-mean simulated vs
// model-extrapolated behaviour.
type PlanPoint struct {
	Values  []int
	Machine string
	// SimCPI and ModelCPI are suite-mean CPIs: the simulator's measured
	// value vs the base-fitted model extrapolated to this cell.
	SimCPI   float64
	ModelCPI float64
	// SimStack and ModelStack are suite-mean per-µop cycle stacks
	// (ground-truth accounting vs model decomposition).
	SimStack   sim.Stack
	ModelStack sim.Stack
}

// Err returns the model's relative CPI error at this cell.
func (p PlanPoint) Err() float64 { return stats.RelErr(p.ModelCPI, p.SimCPI) }

// PlanResult is an executed plan: the model fitted once at the base
// configuration and extrapolated — empirical coefficients frozen,
// machine parameters and counters updated — to every grid cell. A
// one-axis result is also a sweep's (see SweepReport and RenderSweep).
type PlanResult struct {
	Base       string
	Axes       []PlanAxis
	BaseValues []int
	Suite      string
	NumOps     int
	Points     []PlanPoint
	Stats      SimStats
}

// RunPlan simulates the plan's base and every grid cell on its suite
// (through opts.Store when configured, so reruns are incremental, and
// with one materialized trace buffer shared across all the grid's
// machines per workload), fits the model at base, and evaluates it at
// every cell.
func RunPlan(p *Plan, opts Options) (*PlanResult, error) {
	return RunPlanContext(context.Background(), p, opts)
}

// RunPlanContext is RunPlan with cancellation: cancelling ctx stops the
// dispatch of new cell simulations and skips the fit, returning
// ctx.Err(). Completed simulations stay in the store, so a rerun
// resumes warm. Every plan and sweep, on every surface, runs through
// here; each cell is evaluated by Lab.extrapolate, as the optimizer's
// probes are.
func RunPlanContext(ctx context.Context, p *Plan, opts Options) (*PlanResult, error) {
	opts = opts.withDefaults()
	suite, err := suites.ByName(p.Suite, suites.Options{NumOps: opts.NumOps, SeedBase: opts.SeedBase})
	if err != nil {
		return nil, err
	}
	lab, err := NewCustomLab(p.Machines, []suites.Suite{suite}, opts)
	if err != nil {
		return nil, err
	}
	if err := lab.SimulateContext(ctx); err != nil {
		return nil, err
	}
	fitted, err := lab.Model(p.Base.Name, p.Suite)
	if err != nil {
		return nil, err
	}
	res := &PlanResult{
		Base:       p.Base.Name,
		Axes:       p.Axes,
		BaseValues: p.BaseValues(),
		Suite:      p.Suite,
		NumOps:     lab.NumOps(),
		Stats:      lab.SimStats(),
	}
	for ci, m := range lab.Machines()[1:] {
		pt := PlanPoint{Values: p.Cells[ci], Machine: m.Name}
		if err := lab.extrapolate(&pt, m, p.Suite, fitted.P); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// cellCPI is the wire form of one evaluated cell, shared by plan cells
// and sweep points: the derived machine and its simulated vs
// model-extrapolated suite-mean CPI and stacks. RelErr is signed
// (negative = the model under-predicts).
type cellCPI struct {
	Machine    string     `json:"machine"`
	SimCPI     float64    `json:"simCPI"`
	ModelCPI   float64    `json:"modelCPI"`
	RelErr     float64    `json:"relErr"`
	SimStack   []StackCPI `json:"simStack"`
	ModelStack []StackCPI `json:"modelStack"`
}

func (p PlanPoint) cellCPI() cellCPI {
	return cellCPI{
		Machine:    p.Machine,
		SimCPI:     p.SimCPI,
		ModelCPI:   p.ModelCPI,
		RelErr:     (p.ModelCPI - p.SimCPI) / p.SimCPI,
		SimStack:   StackCPIs(p.SimStack),
		ModelStack: StackCPIs(p.ModelStack),
	}
}

// PlanCellReport is one evaluated grid cell of a PlanReport, its axis
// values aligned with the plan's axes.
type PlanCellReport struct {
	Values []int `json:"values"`
	cellCPI
}

// PlanReport is the wire form of a PlanResult: the one JSON shape POST
// /v1/plan responses, plan job results and cmd/sweep's grid -json output
// share. Cells appear row-major with the last axis fastest; BaseValues
// is the fit point on each axis. Sims reports the plan's run sourcing —
// on a warm store a whole grid answers with zero simulations and zero
// trace generations.
type PlanReport struct {
	Base       string           `json:"base"`
	Suite      string           `json:"suite"`
	Ops        int              `json:"ops"`
	Axes       []PlanAxis       `json:"axes"`
	BaseValues []int            `json:"baseValues"`
	Cells      []PlanCellReport `json:"cells"`
	Sims       SimStats         `json:"sims"`
}

// Report flattens the result into its wire form.
func (r *PlanResult) Report() *PlanReport {
	rep := &PlanReport{Base: r.Base, Suite: r.Suite, Ops: r.NumOps, Axes: r.Axes,
		BaseValues: r.BaseValues, Sims: r.Stats}
	for _, p := range r.Points {
		rep.Cells = append(rep.Cells, PlanCellReport{Values: p.Values, cellCPI: p.cellCPI()})
	}
	return rep
}

// Render returns the grid table as text: one row per cell with its
// axis values, the suite-mean simulated vs model-predicted CPI, and
// the relative error, followed by a worst-cell summary.
func (r *PlanResult) Render() string {
	var b strings.Builder
	var axisNames []string
	for _, ax := range r.Axes {
		axisNames = append(axisNames, ax.Param)
	}
	var fitAt []string
	for i, ax := range r.Axes {
		fitAt = append(fitAt, fmt.Sprintf("%s=%d", ax.Param, r.BaseValues[i]))
	}
	fmt.Fprintf(&b, "plan: %s × %s on %s (%d cells, %d µops/workload; model fitted at %s)\n",
		r.Base, strings.Join(axisNames, "×"), r.Suite, len(r.Points), r.NumOps,
		strings.Join(fitAt, " "))
	for _, name := range axisNames {
		fmt.Fprintf(&b, " %7s", name)
	}
	fmt.Fprintf(&b, " %9s %10s %7s\n", "sim-CPI", "model-CPI", "err")
	worst := -1.0
	worstCell := ""
	for _, p := range r.Points {
		for _, v := range p.Values {
			fmt.Fprintf(&b, " %7d", v)
		}
		fmt.Fprintf(&b, " %9.4f %10.4f %6.1f%%\n", p.SimCPI, p.ModelCPI, 100*p.Err())
		if e := p.Err(); e > worst {
			worst = e
			worstCell = p.Machine
		}
	}
	fmt.Fprintf(&b, "worst extrapolation: %s (%.1f%% CPI error)\n", worstCell, 100*worst)
	return b.String()
}
