package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// Objective kinds: minimize the suite-mean model CPI outright, minimize
// the hardware-cost proxy subject to a CPI budget, or map the Pareto
// frontier of the CPI/cost trade-off.
const (
	ObjectiveMinCPI  = "min-cpi"
	ObjectiveMinCost = "min-cost"
	ObjectivePareto  = "pareto"
)

// Search algorithms: coordinate descent walks axis lines from the base
// point; successive halving screens the whole grid at reduced µop
// fidelity and promotes survivors rung by rung.
const (
	SearchCoordinateDescent = "coordinate-descent"
	SearchSuccessiveHalving = "successive-halving"
)

// ObjectiveSpec declares what the optimizer minimizes. Exactly one of
// CPIBudget (an absolute suite-mean CPI cap) or CPISlack (a relative cap:
// base CPI × (1+slack)) constrains a min-cost search; a pareto search may
// carry one optionally, restricting the frontier to feasible cells.
// Points is pareto-only: how many weighted-sum scalarizations to run
// (default 5).
type ObjectiveSpec struct {
	Kind      string  `json:"kind"`
	CPIBudget float64 `json:"cpiBudget,omitempty"`
	CPISlack  float64 `json:"cpiSlack,omitempty"`
	Points    int     `json:"points,omitempty"`
}

// SearchSpec tunes how the optimizer walks the grid. Zero values resolve
// to defaults: coordinate descent, no probe cap, a trust radius of one
// doubling, three successive-halving rungs.
type SearchSpec struct {
	Algorithm string `json:"algorithm,omitempty"`
	// MaxProbes caps the full-fidelity cells the search may evaluate
	// (0 = the whole grid). A search that hits the cap reports
	// Truncated and answers from what it probed.
	MaxProbes int `json:"maxProbes,omitempty"`
	// TrustRadius bounds how far (in per-axis doublings: the max over
	// axes of |log2(value/baseValue)|) the frozen-coefficient
	// extrapolation is trusted. A probe beyond it re-fits the model at
	// its own machine before predicting.
	TrustRadius float64 `json:"trustRadius,omitempty"`
	// Rungs is the successive-halving rung count, the last rung at full
	// µop fidelity (default 3, valid 2–6; successive-halving only).
	Rungs int `json:"rungs,omitempty"`
}

// OptimizeSpec is the declarative form of a design-space optimization:
// the JSON schema of optimize files, POST /v1/optimize bodies and
// optimize job payloads. The grid (base × axes × suite) follows exactly
// the plan-spec rules; the objective and search sections say what to
// minimize and how to walk the grid without exhausting it.
type OptimizeSpec struct {
	Base      MachineSpec   `json:"base"`
	Axes      []PlanAxis    `json:"axes"`
	Suite     string        `json:"suite"`
	Objective ObjectiveSpec `json:"objective"`
	Search    SearchSpec    `json:"search,omitzero"`
}

// ParseOptimizeSpec decodes an optimize document with the scenario-file
// rules: unknown fields and trailing data are errors.
func ParseOptimizeSpec(data []byte) (OptimizeSpec, error) {
	var spec OptimizeSpec
	if err := DecodeStrict(bytes.NewReader(data), &spec); err != nil {
		return OptimizeSpec{}, fmt.Errorf("experiments: parse optimize: %w", err)
	}
	if len(spec.Axes) == 0 {
		return OptimizeSpec{}, fmt.Errorf("experiments: optimize has no axes")
	}
	if spec.Suite == "" {
		return OptimizeSpec{}, fmt.Errorf("experiments: optimize has no suite")
	}
	if spec.Objective.Kind == "" {
		return OptimizeSpec{}, fmt.Errorf("experiments: optimize has no objective kind")
	}
	return spec, nil
}

// LoadOptimizeSpec reads and parses an optimize file.
func LoadOptimizeSpec(path string) (OptimizeSpec, error) { return loadFile(path, ParseOptimizeSpec) }

// Optimize is a validated, fully resolved optimization: the grid
// expanded through NewPlan (base machine via the uarch registry, axes
// via the sweep-param table, every cell derived and validated up
// front) and the objective/search sections with defaults applied.
type Optimize struct {
	Plan *Plan

	Objective ObjectiveSpec
	Search    SearchSpec
}

// Resolve materializes the spec into a validated Optimize. Everything
// that can be rejected without simulating — unknown machines, bogus
// axes, underivable cells, contradictory objectives — is rejected here,
// so the serving layer and job engine fail fast.
func (spec OptimizeSpec) Resolve() (*Optimize, error) {
	base, err := spec.Base.Resolve()
	if err != nil {
		return nil, err
	}
	plan, err := NewPlan(base, spec.Axes, spec.Suite)
	if err != nil {
		return nil, err
	}
	o := &Optimize{Plan: plan, Objective: spec.Objective, Search: spec.Search}

	ob := &o.Objective
	switch ob.Kind {
	case ObjectiveMinCPI, ObjectiveMinCost, ObjectivePareto:
	case "":
		return nil, fmt.Errorf("experiments: optimize needs an objective kind (%q, %q or %q)",
			ObjectiveMinCPI, ObjectiveMinCost, ObjectivePareto)
	default:
		return nil, fmt.Errorf("experiments: unknown objective kind %q (want %q, %q or %q)",
			ob.Kind, ObjectiveMinCPI, ObjectiveMinCost, ObjectivePareto)
	}
	if ob.CPIBudget < 0 || ob.CPISlack < 0 {
		return nil, fmt.Errorf("experiments: optimize cpiBudget and cpiSlack must be positive")
	}
	if ob.CPIBudget > 0 && ob.CPISlack > 0 {
		return nil, fmt.Errorf("experiments: optimize takes cpiBudget or cpiSlack, not both")
	}
	switch ob.Kind {
	case ObjectiveMinCPI:
		if ob.CPIBudget > 0 || ob.CPISlack > 0 {
			return nil, fmt.Errorf("experiments: %s takes no CPI budget", ObjectiveMinCPI)
		}
	case ObjectiveMinCost:
		if ob.CPIBudget == 0 && ob.CPISlack == 0 {
			return nil, fmt.Errorf("experiments: %s needs a cpiBudget or cpiSlack", ObjectiveMinCost)
		}
	}
	if ob.Kind == ObjectivePareto {
		if len(spec.Axes) < 2 || len(spec.Axes) > 3 {
			return nil, fmt.Errorf("experiments: %s wants 2 or 3 axes, got %d", ObjectivePareto, len(spec.Axes))
		}
		if ob.Points == 0 {
			ob.Points = 5
		}
		if ob.Points < 2 || ob.Points > 9 {
			return nil, fmt.Errorf("experiments: %s points must be 2–9, got %d", ObjectivePareto, ob.Points)
		}
	} else if ob.Points != 0 {
		return nil, fmt.Errorf("experiments: objective points only applies to %s", ObjectivePareto)
	}

	se := &o.Search
	switch se.Algorithm {
	case "":
		se.Algorithm = SearchCoordinateDescent
	case SearchCoordinateDescent, SearchSuccessiveHalving:
	default:
		return nil, fmt.Errorf("experiments: unknown search algorithm %q (want %q or %q)",
			se.Algorithm, SearchCoordinateDescent, SearchSuccessiveHalving)
	}
	if se.MaxProbes < 0 {
		return nil, fmt.Errorf("experiments: search maxProbes must not be negative")
	}
	if se.TrustRadius < 0 {
		return nil, fmt.Errorf("experiments: search trustRadius must not be negative")
	}
	if se.TrustRadius == 0 {
		se.TrustRadius = 1
	}
	if se.Algorithm == SearchSuccessiveHalving {
		if se.Rungs == 0 {
			se.Rungs = 3
		}
		if se.Rungs < 2 || se.Rungs > 6 {
			return nil, fmt.Errorf("experiments: search rungs must be 2–6, got %d", se.Rungs)
		}
	} else if se.Rungs != 0 {
		return nil, fmt.Errorf("experiments: search rungs only apply to %s", SearchSuccessiveHalving)
	}
	return o, nil
}

// ProbeBound is the most full-fidelity probes this search may spend: the
// grid size, or MaxProbes when tighter. Progress reporting uses it as
// the probe denominator.
func (o *Optimize) ProbeBound() int {
	cells := len(o.Plan.Cells)
	if o.Search.MaxProbes > 0 && o.Search.MaxProbes < cells {
		return o.Search.MaxProbes
	}
	return cells
}

// rungSizes returns the successive-halving candidate count per rung:
// the whole grid screened at the first (cheapest) rung, half the
// survivors promoted to each next, the last rung at full fidelity.
func (o *Optimize) rungSizes() []int {
	sizes := make([]int, o.Search.Rungs)
	n := len(o.Plan.Cells)
	for r := range sizes {
		sizes[r] = n
		n = (n + 1) / 2
	}
	return sizes
}

// runBound is an upper bound on the simulation runs an execution may
// dispatch or serve from the store: the base fit plus every grid cell at
// full fidelity, plus (successive halving) the reduced-fidelity rung
// screens. An optimizer that finishes well below this bound is the
// point; the job engine reports the bound as TotalRuns.
func (o *Optimize) runBound(workloads int) int {
	n := 1 + o.ProbeBound()
	if o.Search.Algorithm == SearchSuccessiveHalving {
		sizes := o.rungSizes()
		for _, s := range sizes[:len(sizes)-1] {
			n += s
		}
	}
	return n * workloads
}

// OptimizePoint is one probed grid cell in its wire form: the axis
// values, derived machine, suite-mean simulated vs model-predicted CPI
// and stacks — the prediction extrapolated, or re-fitted when Refit is
// set — the cost proxy, and how the prediction was made. RelErr is
// signed (negative = the model under-predicts), matching the serving
// convention.
type OptimizePoint struct {
	Values   []int   `json:"values"`
	Machine  string  `json:"machine"`
	SimCPI   float64 `json:"simCPI"`
	ModelCPI float64 `json:"modelCPI"`
	RelErr   float64 `json:"relErr"`
	// Cost is the hardware-cost proxy: the sum over explored axes of the
	// cell's value relative to base (inverted on CostDown axes), so the
	// base point costs exactly the axis count.
	Cost float64 `json:"cost"`
	// Distance is the probe's distance from the fit point in per-axis
	// doublings: max over axes of |log2(value/baseValue)|.
	Distance float64 `json:"distance"`
	// Refit reports that Distance exceeded the trust radius, so ModelCPI
	// comes from a model re-fitted at this cell's machine.
	Refit bool `json:"refit"`
	// Feasible reports ModelCPI within the CPI budget (always true when
	// the objective carries none).
	Feasible   bool       `json:"feasible"`
	SimStack   []StackCPI `json:"simStack"`
	ModelStack []StackCPI `json:"modelStack"`
}

// OptimizeRung counts one successive-halving screen: how many cells were
// evaluated at the rung's reduced µop count. The final full-fidelity
// rung is not listed here — its evaluations are the Probes count.
type OptimizeRung struct {
	Ops    int `json:"ops"`
	Probes int `json:"probes"`
}

// OptimizeReport is an executed optimization, in the one JSON shape
// shared by POST /v1/optimize responses, optimize job results and
// cmd/sweep -optimize -json output. Probes counts the full-fidelity
// cells actually evaluated — the number to compare against GridCells to
// see what the search saved over exhaustive enumeration. Best is set
// for scalar objectives; Frontier for pareto (sorted by ModelCPI,
// mutually non-dominated in (ModelCPI, Cost)).
type OptimizeReport struct {
	Base       string         `json:"base"`
	Suite      string         `json:"suite"`
	Ops        int            `json:"ops"`
	Axes       []PlanAxis     `json:"axes"`
	BaseValues []int          `json:"baseValues"`
	Objective  ObjectiveSpec  `json:"objective"`
	Algorithm  string         `json:"algorithm"`
	GridCells  int            `json:"gridCells"`
	Probes     int            `json:"probes"`
	Rungs      []OptimizeRung `json:"rungs,omitempty"`
	Refits     int            `json:"refits"`
	Truncated  bool           `json:"truncated,omitempty"`
	// BaseCPI is the suite-mean measured CPI at the base machine — the
	// reference a relative CPI budget (cpiSlack) resolves against.
	BaseCPI float64 `json:"baseCPI"`
	// CPIBudget is the resolved absolute budget (0 = unconstrained).
	CPIBudget float64 `json:"cpiBudget,omitempty"`

	Best     *OptimizePoint  `json:"best,omitempty"`
	Frontier []OptimizePoint `json:"frontier,omitempty"`

	Sims SimStats `json:"sims"`
}

// optimizer is one search execution over a resolved grid: the probe
// memo (full-fidelity cells are evaluated at most once, no matter how
// many axis lines or scalarizations revisit them), the reduced-fidelity
// screen cache, and the counters the result reports.
type optimizer struct {
	ctx     context.Context
	o       *Optimize
	base    *Fitted
	opts    Options
	onProbe func(done int)

	maxProbes int
	budgetCPI float64 // resolved absolute budget; 0 = none
	baseCPI   float64
	baseCost  float64

	memo      map[int]*OptimizePoint    // full-fidelity probes by cell index
	low       map[lowKey]*OptimizePoint // screens; the report's rungs count them per ops
	stats     SimStats
	refits    int
	truncated bool
}

type lowKey struct {
	ops  int
	cell int
}

// better orders two probed points under an objective; it must be a
// strict order (a point never beats itself) so the descent terminates.
type better func(a, b *OptimizePoint) bool

// RunOptimize executes the optimization: the base suite is simulated
// (through opts.Store when configured) and fitted, then the grid is
// searched. The report's Sims include the base fit. Cancelling ctx
// stops the dispatch of new simulations and returns ctx.Err(), with
// every completed run already persisted to the store so a rerun resumes
// warm. onProbe, when non-nil, is called after each batch of
// full-fidelity probes with the cumulative probe count (calls are never
// concurrent).
func RunOptimize(ctx context.Context, o *Optimize, opts Options, onProbe func(done int)) (*OptimizeReport, error) {
	opts = opts.withDefaults()
	suite, err := suites.ByName(o.Plan.Suite, suites.Options{NumOps: opts.NumOps, SeedBase: opts.SeedBase})
	if err != nil {
		return nil, err
	}
	base, baseSt, err := fitSuite(ctx, o.Plan.Base, suite, opts)
	if err != nil {
		return nil, err
	}
	z := &optimizer{
		ctx:       ctx,
		o:         o,
		base:      base,
		opts:      opts,
		onProbe:   onProbe,
		maxProbes: o.ProbeBound(),
		baseCost:  float64(len(o.Plan.Axes)),
		memo:      map[int]*OptimizePoint{},
		low:       map[lowKey]*OptimizePoint{},
		stats:     baseSt,
	}
	cpis := make([]float64, 0, len(base.Obs))
	for i := range base.Obs {
		cpis = append(cpis, base.Obs[i].MeasuredCPI)
	}
	z.baseCPI = stats.Mean(cpis)
	switch {
	case o.Objective.CPIBudget > 0:
		z.budgetCPI = o.Objective.CPIBudget
	case o.Objective.CPISlack > 0:
		z.budgetCPI = z.baseCPI * (1 + o.Objective.CPISlack)
	}

	res := &OptimizeReport{
		Base:       o.Plan.Base.Name,
		Suite:      o.Plan.Suite,
		Ops:        opts.NumOps,
		Axes:       o.Plan.Axes,
		BaseValues: o.Plan.BaseValues(),
		Objective:  o.Objective,
		Algorithm:  o.Search.Algorithm,
		GridCells:  len(o.Plan.Cells),
		BaseCPI:    z.baseCPI,
		CPIBudget:  z.budgetCPI,
	}

	if o.Objective.Kind == ObjectivePareto {
		res.Frontier, err = z.pareto()
	} else {
		res.Best, err = z.search(z.scalarBetter())
	}
	if err != nil {
		return nil, err
	}
	res.Probes = len(z.memo)
	res.Refits = z.refits
	res.Truncated = z.truncated
	probes := map[int]int{} // reduced-fidelity evaluations by ops
	for k := range z.low {
		probes[k.ops]++
	}
	for ops, n := range probes {
		res.Rungs = append(res.Rungs, OptimizeRung{Ops: ops, Probes: n})
	}
	sort.Slice(res.Rungs, func(a, b int) bool { return res.Rungs[a].Ops < res.Rungs[b].Ops })
	res.Sims = z.stats
	return res, nil
}

// search runs the configured algorithm under one comparator.
func (z *optimizer) search(b better) (*OptimizePoint, error) {
	if z.o.Search.Algorithm == SearchSuccessiveHalving {
		return z.successiveHalving(b)
	}
	return z.coordinateDescent(b)
}

// scalarBetter builds the comparator for the scalar objectives. Ties
// break toward lower cost, then lower CPI, then lexicographically
// smaller axis values, so identical inputs always elect the same cell.
func (z *optimizer) scalarBetter() better {
	if z.o.Objective.Kind == ObjectiveMinCost {
		// Feasibility first, then cost, then CPI: among machines meeting
		// the budget, the cheapest wins; with no feasible probe yet, the
		// comparator still totally orders the infeasible ones.
		return func(a, b *OptimizePoint) bool {
			if a.Feasible != b.Feasible {
				return a.Feasible
			}
			if a.Cost != b.Cost {
				return a.Cost < b.Cost
			}
			if a.ModelCPI != b.ModelCPI {
				return a.ModelCPI < b.ModelCPI
			}
			return lexLess(a.Values, b.Values)
		}
	}
	return func(a, b *OptimizePoint) bool {
		if a.ModelCPI != b.ModelCPI {
			return a.ModelCPI < b.ModelCPI
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return lexLess(a.Values, b.Values)
	}
}

// weightedBetter builds one pareto scalarization: a weighted sum of the
// base-normalized CPI and cost. λ=1 is pure CPI, λ=0 pure cost.
func (z *optimizer) weightedBetter(lambda float64) better {
	score := func(p *OptimizePoint) float64 {
		return lambda*(p.ModelCPI/z.baseCPI) + (1-lambda)*(p.Cost/z.baseCost)
	}
	return func(a, b *OptimizePoint) bool {
		sa, sb := score(a), score(b)
		if sa != sb {
			return sa < sb
		}
		return lexLess(a.Values, b.Values)
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// flat maps per-axis value indices to the row-major (last axis fastest)
// cell index NewPlan enumerated.
func (z *optimizer) flat(coords []int) int {
	idx := 0
	for i, ax := range z.o.Plan.Axes {
		idx = idx*len(ax.Values) + coords[i]
	}
	return idx
}

// coordsOf inverts a cell's axis values back to per-axis indices.
func (z *optimizer) coordsOf(values []int) []int {
	out := make([]int, len(values))
	for i, ax := range z.o.Plan.Axes {
		for vi, v := range ax.Values {
			if v == values[i] {
				out[i] = vi
				break
			}
		}
	}
	return out
}

// startCoords picks the grid cell nearest the base machine (smallest
// per-axis log2 distance, first value on ties) — the cell where the
// frozen-base extrapolation is most trustworthy, so the descent starts
// from solid ground.
func (z *optimizer) startCoords() []int {
	baseVals := z.o.Plan.BaseValues()
	out := make([]int, len(z.o.Plan.Axes))
	for i, ax := range z.o.Plan.Axes {
		bestD := math.Inf(1)
		for vi, v := range ax.Values {
			d := math.Abs(math.Log2(float64(v) / float64(baseVals[i])))
			if d < bestD {
				bestD = d
				out[i] = vi
			}
		}
	}
	return out
}

// distance is the cell's trust-radius metric: the max over axes of
// |log2(value/baseValue)| — how many doublings the probe sits from the
// fit point on its most-stretched axis.
func (z *optimizer) distance(values []int) float64 {
	baseVals := z.o.Plan.BaseValues()
	d := 0.0
	for i, v := range values {
		if a := math.Abs(math.Log2(float64(v) / float64(baseVals[i]))); a > d {
			d = a
		}
	}
	return d
}

// cost is the hardware-cost proxy: the sum over axes of value/baseValue
// ratios, inverted on CostDown axes (lower memory latency = pricier
// memory). The base point costs exactly len(axes); doubling one
// capacity axis adds 1.
func (z *optimizer) cost(values []int) float64 {
	baseVals := z.o.Plan.BaseValues()
	c := 0.0
	for i, v := range values {
		var r float64
		if z.o.Plan.params[i].CostDown {
			r = float64(baseVals[i]) / float64(v)
		} else {
			r = float64(v) / float64(baseVals[i])
		}
		c += r
	}
	return c
}

// evalCells simulates the given cells' machines over one suite
// instantiation in one Lab (through the run store, with traces shared
// workload-wise across the batch) and turns each into an OptimizePoint:
// the base fit's frozen coefficients extrapolated with the cell's own
// machine parameters and measured counters — or, when allowRefit is set
// and the cell sits beyond the trust radius, a model re-fitted at the
// cell.
func (z *optimizer) evalCells(suite suites.Suite, idxs []int, allowRefit bool) (map[int]*OptimizePoint, error) {
	machines := make([]*uarch.Machine, len(idxs))
	for i, idx := range idxs {
		machines[i] = z.o.Plan.Machines[1+idx]
	}
	lab, err := NewCustomLab(machines, []suites.Suite{suite}, z.opts)
	if err != nil {
		return nil, err
	}
	err = lab.SimulateContext(z.ctx)
	z.stats.add(lab.SimStats())
	if err != nil {
		return nil, err
	}

	out := make(map[int]*OptimizePoint, len(idxs))
	for i, idx := range idxs {
		m := machines[i]
		values := z.o.Plan.Cells[idx]
		distance := z.distance(values)
		p, refit := z.base.Model.P, false
		if allowRefit && distance > z.o.Search.TrustRadius {
			model, err := lab.Model(m.Name, suite.Name)
			if err != nil {
				return nil, err
			}
			p, refit = model.P, true
			z.refits++
		}
		pt := PlanPoint{Values: values, Machine: m.Name}
		if err := lab.extrapolate(&pt, m, suite.Name, p); err != nil {
			return nil, err
		}
		c := pt.cellCPI()
		out[idx] = &OptimizePoint{
			Values:     values,
			Machine:    c.Machine,
			SimCPI:     c.SimCPI,
			ModelCPI:   c.ModelCPI,
			RelErr:     c.RelErr,
			Cost:       z.cost(values),
			Distance:   distance,
			Refit:      refit,
			Feasible:   z.budgetCPI == 0 || c.ModelCPI <= z.budgetCPI,
			SimStack:   c.SimStack,
			ModelStack: c.ModelStack,
		}
	}
	return out, nil
}

// probeFull evaluates cells at full fidelity, memoized: revisited cells
// are free, and the probe budget (MaxProbes) is charged only for fresh
// evaluations — when it runs out, the remaining requests are dropped and
// the search is marked truncated. idxs are distinct cells: a descent
// line holds one axis's values, which validation makes unique, and
// halving candidates are distinct indices.
func (z *optimizer) probeFull(idxs []int) error {
	var missing []int
	for _, idx := range idxs {
		if _, ok := z.memo[idx]; !ok {
			missing = append(missing, idx)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if room := z.maxProbes - len(z.memo); len(missing) > room {
		missing = missing[:room]
		z.truncated = true
	}
	if len(missing) == 0 {
		return nil
	}
	pts, err := z.evalCells(z.base.Suite, missing, true)
	if err != nil {
		return err
	}
	for idx, pt := range pts {
		z.memo[idx] = pt
	}
	if z.onProbe != nil {
		z.onProbe(len(z.memo))
	}
	return nil
}

// probeLow evaluates cells at a reduced µop count for successive-halving
// screens, cached per (ops, cell) so pareto's repeated scalarizations
// never re-screen. The cache changes no result, since a re-screen would
// rank the same runs the same way; what it saves is probes, which
// rungs[].probes shows: each cell is counted once per rung, not once per
// scalarization (TestOptimizeParetoSuccessiveHalving). No re-fits at
// reduced fidelity: the screen only ranks candidates, and the
// full-fidelity final rung re-judges the survivors.
func (z *optimizer) probeLow(ops int, idxs []int) (map[int]*OptimizePoint, error) {
	out := make(map[int]*OptimizePoint, len(idxs))
	var missing []int
	for _, idx := range idxs {
		if pt, ok := z.low[lowKey{ops, idx}]; ok {
			out[idx] = pt
		} else {
			missing = append(missing, idx)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	suite, err := suites.ByName(z.o.Plan.Suite, suites.Options{NumOps: ops, SeedBase: z.opts.SeedBase})
	if err != nil {
		return nil, err
	}
	pts, err := z.evalCells(suite, missing, false)
	if err != nil {
		return nil, err
	}
	for idx, pt := range pts {
		z.low[lowKey{ops, idx}] = pt
		out[idx] = pt
	}
	return out, nil
}

// bestProbed returns the comparator-minimum over every full-fidelity
// probe so far, scanning cells in index order so ties are deterministic.
func (z *optimizer) bestProbed(b better) *OptimizePoint {
	idxs := make([]int, 0, len(z.memo))
	for idx := range z.memo {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	var best *OptimizePoint
	for _, idx := range idxs {
		if pt := z.memo[idx]; best == nil || b(pt, best) {
			best = pt
		}
	}
	return best
}

// coordinateDescent starts at the cell nearest the base point and
// repeatedly probes whole axis lines through the incumbent, moving to
// the line's best cell, until a full pass over the axes improves
// nothing. Probes are batched per line (sharing traces workload-wise)
// and memoized, so a descent typically pays a few lines — not the grid.
func (z *optimizer) coordinateDescent(b better) (*OptimizePoint, error) {
	if err := z.probeFull([]int{z.flat(z.startCoords())}); err != nil {
		return nil, err
	}
	best := z.bestProbed(b)
	if best == nil {
		return nil, fmt.Errorf("experiments: optimize probed no cells")
	}
	for {
		prev := best
		cur := z.coordsOf(best.Values)
		for ax := range z.o.Plan.Axes {
			line := make([]int, 0, len(z.o.Plan.Axes[ax].Values))
			coords := append([]int(nil), cur...)
			for vi := range z.o.Plan.Axes[ax].Values {
				coords[ax] = vi
				line = append(line, z.flat(coords))
			}
			if err := z.probeFull(line); err != nil {
				return nil, err
			}
			if nb := z.bestProbed(b); nb != best {
				best = nb
				cur = z.coordsOf(best.Values)
			}
		}
		if best == prev {
			return best, nil
		}
	}
}

// successiveHalving screens every cell at the cheapest rung's reduced
// µop count, promotes the better half rung by rung (each rung doubling
// the fidelity), and evaluates only the last rung's survivors at full
// fidelity. The store keys reduced-ops runs separately, so screens warm
// the store for reruns without polluting full-fidelity results.
func (z *optimizer) successiveHalving(b better) (*OptimizePoint, error) {
	cand := make([]int, len(z.o.Plan.Cells))
	for i := range cand {
		cand[i] = i
	}
	sizes := z.o.rungSizes()
	for r := 0; r < z.o.Search.Rungs-1; r++ {
		ops := z.rungOps(r)
		pts, err := z.probeLow(ops, cand)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(cand, func(i, j int) bool { return b(pts[cand[i]], pts[cand[j]]) })
		cand = cand[:sizes[r+1]]
	}
	if err := z.probeFull(cand); err != nil {
		return nil, err
	}
	return z.bestProbed(b), nil
}

// rungOps is rung r's µop count: the full count halved once per
// remaining rung, floored at 500 so a screen still exercises every
// workload phase.
func (z *optimizer) rungOps(r int) int {
	ops := z.opts.NumOps >> (z.o.Search.Rungs - 1 - r)
	if ops < 500 {
		ops = 500
	}
	if ops > z.opts.NumOps {
		ops = z.opts.NumOps
	}
	return ops
}

// pareto maps the CPI/cost trade-off: the scalar search runs once per
// weighted-sum scalarization (λ from pure-cost to pure-CPI), all sharing
// one probe memo, and the frontier is the non-dominated set of every
// cell probed along the way. Weighted sums find the frontier's convex
// (supported) points; cells probed en route can fill in the rest, but a
// strongly non-convex frontier may be under-sampled — raise
// objective.points or maxProbes to sharpen it.
func (z *optimizer) pareto() ([]OptimizePoint, error) {
	k := z.o.Objective.Points
	for i := 0; i < k; i++ {
		lambda := float64(i) / float64(k-1)
		if _, err := z.search(z.weightedBetter(lambda)); err != nil {
			return nil, err
		}
	}
	idxs := make([]int, 0, len(z.memo))
	for idx := range z.memo {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	var frontier []OptimizePoint
	for _, i := range idxs {
		p := z.memo[i]
		if !p.Feasible {
			continue
		}
		dominated := false
		for _, j := range idxs {
			q := z.memo[j]
			if !q.Feasible || q == p {
				continue
			}
			if q.ModelCPI <= p.ModelCPI && q.Cost <= p.Cost &&
				(q.ModelCPI < p.ModelCPI || q.Cost < p.Cost) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, *p)
		}
	}
	sort.Slice(frontier, func(a, b int) bool {
		if frontier[a].ModelCPI != frontier[b].ModelCPI {
			return frontier[a].ModelCPI < frontier[b].ModelCPI
		}
		if frontier[a].Cost != frontier[b].Cost {
			return frontier[a].Cost < frontier[b].Cost
		}
		return lexLess(frontier[a].Values, frontier[b].Values)
	})
	return frontier, nil
}

// Render returns the optimization as text: the search header, the probe
// economics (what the search paid vs exhaustive enumeration), and the
// winner — or the frontier — each with its per-component model CPI
// stack, so the trade-off each point buys is visible at a glance.
func (r *OptimizeReport) Render() string {
	var b strings.Builder
	var axisNames []string
	var fitAt []string
	for i, ax := range r.Axes {
		axisNames = append(axisNames, ax.Param)
		fitAt = append(fitAt, fmt.Sprintf("%s=%d", ax.Param, r.BaseValues[i]))
	}
	fmt.Fprintf(&b, "optimize: %s over %s on %s (%d-cell grid, %d µops/workload; objective %s, %s; fitted at %s)\n",
		r.Base, strings.Join(axisNames, "×"), r.Suite, r.GridCells, r.Ops,
		r.Objective.Kind, r.Algorithm, strings.Join(fitAt, " "))
	if r.CPIBudget > 0 {
		fmt.Fprintf(&b, "budget: suite-mean CPI ≤ %.4f (base %.4f)\n", r.CPIBudget, r.BaseCPI)
	}
	fmt.Fprintf(&b, "probes: %d of %d grid cells at full fidelity", r.Probes, r.GridCells)
	for _, rung := range r.Rungs {
		fmt.Fprintf(&b, " + %d at %d µops", rung.Probes, rung.Ops)
	}
	fmt.Fprintf(&b, "; %d re-fit beyond trust radius", r.Refits)
	if r.Truncated {
		fmt.Fprintf(&b, "; probe budget exhausted")
	}
	fmt.Fprintf(&b, "\n")

	point := func(label string, p *OptimizePoint) {
		var vals []string
		for i, ax := range r.Axes {
			vals = append(vals, fmt.Sprintf("%s=%d", ax.Param, p.Values[i]))
		}
		how := "extrapolated"
		if p.Refit {
			how = "re-fitted"
		}
		fmt.Fprintf(&b, "%s: %s (%s)  sim-CPI %.4f  model-CPI %.4f (%s)  cost %.2f\n",
			label, p.Machine, strings.Join(vals, " "), p.SimCPI, p.ModelCPI, how, p.Cost)
		if !p.Feasible {
			fmt.Fprintf(&b, "  over budget: no probed cell met the CPI budget\n")
		}
		fmt.Fprintf(&b, "  model stack:%s\n", renderStack(p.ModelStack))
	}
	if r.Best != nil {
		point("best", r.Best)
	}
	if len(r.Frontier) > 0 {
		fmt.Fprintf(&b, "pareto frontier: %d non-dominated points (CPI vs cost)\n", len(r.Frontier))
		for i := range r.Frontier {
			point(fmt.Sprintf("  [%d]", i+1), &r.Frontier[i])
		}
	}
	return b.String()
}

func renderStack(st []StackCPI) string {
	var b strings.Builder
	for _, c := range st {
		fmt.Fprintf(&b, " %s %.4f", c.Component, c.CPI)
	}
	return b.String()
}
