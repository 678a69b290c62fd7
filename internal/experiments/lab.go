// Package experiments orchestrates the paper's evaluation — and any
// scenario beyond it. A Lab executes a declarative Campaign (machines ×
// suites, resolved through the uarch and suites registries), fits
// mechanistic-empirical models (plus the linear-regression and ANN
// baselines), and regenerates every table and figure of the paper as
// structured data with ASCII renderings; RunPlan executes multi-axis
// exploration plans (crossed grids of derived machines, fitted once at
// the base point and extrapolated per cell, with each workload's µop
// trace materialized once and replayed across the grid), of which a
// one-axis sweep is a projection; Kinds registers every experiment kind
// for the job engine, the daemon and cmd/sweep. cmd/experiments,
// cmd/sweep and the top-level benchmarks are thin wrappers around this
// package.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// Options configures a Lab.
type Options struct {
	// NumOps per workload (default 300000; benchmarks shrink this).
	NumOps int
	// FitStarts is the multi-start count for model fitting (default 12).
	FitStarts int
	// Seed drives fitting restarts (default 1).
	Seed uint64
	// SeedBase offsets every workload generator seed (default 0, the
	// canonical instantiation). Distinct SeedBase values draw entirely
	// fresh synthetic workloads with the same names and statistical
	// recipe — the replication axis seed-sweep campaigns vary. It is
	// part of the trace spec, so run-store keys and fitted-model cache
	// keys distinguish replications automatically.
	SeedBase uint64
	// Workers bounds simulation parallelism (default GOMAXPROCS).
	Workers int
	// Store, when non-nil, is consulted before every simulation and
	// fit and updated as workers and fits finish, making Simulate and
	// Model incremental across processes: a warm store satisfies the
	// whole campaign without dispatching a single job or running a
	// single regression.
	Store *runstore.Store
	// Progress, when non-nil, is invoked once per completed run with its
	// RunKey and sourcing (true = store hit, false = simulated). Calls
	// are never concurrent. The async Jobs engine feeds its per-job
	// run and grid-cell progress counters through this hook.
	Progress func(run RunKey, hit bool)
}

func (o Options) withDefaults() Options {
	if o.NumOps <= 0 {
		o.NumOps = 300000
	}
	if o.FitStarts <= 0 {
		o.FitStarts = 12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		// GOMAXPROCS, not NumCPU: the pool can't use more parallelism
		// than the runtime will schedule, and tests that pin GOMAXPROCS
		// expect the derived worker count to follow.
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// RunKey identifies one (machine, suite, workload) simulation of a
// campaign. Workloads sharing a name across suites (e.g. the bzip2
// variants) stay distinct through the Suite field.
type RunKey struct {
	Machine  string
	Suite    string
	Workload string
}

// modelKey identifies one fitted model.
type modelKey struct {
	machine string
	suite   string
}

// Lab owns the campaign's machines and suites, its simulation results,
// and the fitted models. Construct with NewLab (the paper campaign),
// NewCampaignLab (a declarative scenario) or NewCustomLab (explicit
// values), populate with Simulate, then call the Table*/Fig* methods in
// any order. Not safe for concurrent method calls.
type Lab struct {
	opts     Options
	machines []*uarch.Machine
	suites   []suites.Suite // campaign order
	suiteSet map[string]suites.Suite
	runs     map[RunKey]*sim.Result
	models   map[modelKey]*core.Model
	stats    SimStats
	// skipFitStore, set by ResetModels, keeps Model from reading or
	// writing fits in the run store, so every fit re-runs the regression.
	skipFitStore bool
}

// SimStats reports how Simulate sourced its runs, cumulatively over all
// Simulate calls on this Lab. It is also the wire form: the "sims"
// object of the experiment reports and of GET /v1/stats.
type SimStats struct {
	// Hits is the number of runs satisfied from the run store.
	Hits int `json:"storeHits"`
	// Simulated is the number of store misses (all runs when no store
	// is configured): the runs simulated for this batch rather than read
	// back. Misses of one workload on machines that differ only by Name
	// are simulated once and each counts here.
	Simulated int `json:"simulated"`
	// TraceGens is the number of µop streams actually produced — by the
	// generator for synthetic specs, or decoded from disk for
	// file-backed ones: one per materialized shared buffer plus one per
	// unshared simulation. Store hits produce nothing, and a grid
	// sharing one buffer across M machines counts 1, not M — the
	// regeneration the plan engine's replay path removes.
	TraceGens int `json:"traceGens"`
}

func (st *SimStats) add(o SimStats) {
	st.Hits += o.Hits
	st.Simulated += o.Simulated
	st.TraceGens += o.TraceGens
}

// NewLab builds a lab with the paper's three machines and two suites.
func NewLab(opts Options) *Lab {
	l, err := NewCampaignLab(PaperCampaign(), opts)
	if err != nil {
		// The paper campaign resolves entirely from init-registered
		// machines and suites; failure is a programming bug.
		panic(fmt.Sprintf("experiments: paper campaign: %v", err))
	}
	return l
}

// Machines returns the lab's machines in campaign order.
func (l *Lab) Machines() []*uarch.Machine { return l.machines }

// Machine returns the campaign machine with the given name.
func (l *Lab) Machine(name string) (*uarch.Machine, error) {
	for _, m := range l.machines {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("experiments: machine %q not in this campaign", name)
}

// SuiteNames returns the suite names in campaign order.
func (l *Lab) SuiteNames() []string {
	names := make([]string, len(l.suites))
	for i, s := range l.suites {
		names[i] = s.Name
	}
	return names
}

// Suite returns a suite by name.
func (l *Lab) Suite(name string) (suites.Suite, bool) {
	s, ok := l.suiteSet[name]
	return s, ok
}

// NumOps returns the effective per-workload µop count after option and
// campaign resolution.
func (l *Lab) NumOps() int { return l.opts.NumOps }

// NumWorkloads returns the total workload count across the campaign's
// suites (each machine runs all of them).
func (l *Lab) NumWorkloads() int {
	n := 0
	for _, s := range l.suites {
		n += len(s.Workloads)
	}
	return n
}

// Simulate runs every workload of every campaign suite on every
// campaign machine. It is idempotent: already-computed runs are kept,
// and when a run store is configured every pending run is first looked
// up there — only misses are dispatched to the worker pool, and their
// results are written back atomically as workers finish (the shared
// runSimJobs path, which the Provider's on-demand fits also use).
// SimStats reports how many runs each path served.
func (l *Lab) Simulate() error {
	return l.SimulateContext(context.Background())
}

// SimulateContext is Simulate with cancellation: cancelling ctx stops
// the dispatch of new simulations (in-flight ones finish and are
// recorded and stored) and returns ctx.Err(). The lab keeps every run
// completed before the cancellation, so a later Simulate call resumes
// incrementally.
func (l *Lab) SimulateContext(ctx context.Context) error {
	st, err := runSimJobs(ctx, l.pendingJobs(), l.opts)
	l.stats.add(st)
	return err
}

// pendingJobs returns one simJob per not-yet-computed campaign run,
// each recording its result into this lab. Seed sweeps combine the
// pending jobs of several per-seed labs into a single runSimJobs batch;
// the per-job record keeps every result routed to its own lab.
func (l *Lab) pendingJobs() []simJob {
	var jobs []simJob
	for _, m := range l.machines {
		for _, s := range l.suites {
			for i := range s.Workloads {
				w := &s.Workloads[i]
				rk := RunKey{Machine: m.Name, Suite: s.Name, Workload: w.Name}
				if _, done := l.runs[rk]; done {
					continue
				}
				jobs = append(jobs, simJob{machine: m, spec: w, run: rk, record: l.recordRun})
			}
		}
	}
	return jobs
}

func (l *Lab) recordRun(rk RunKey, r *sim.Result) { l.runs[rk] = r }

// SimStats returns cumulative run-sourcing counts over all Simulate
// calls: store hits vs actually-dispatched simulations.
func (l *Lab) SimStats() SimStats { return l.stats }

// Run returns the cached simulation of workload w (of the named suite)
// on machine m.
func (l *Lab) Run(machine, suite, workload string) (*sim.Result, error) {
	r, ok := l.runs[RunKey{Machine: machine, Suite: suite, Workload: workload}]
	if !ok {
		return nil, fmt.Errorf("experiments: no run for %s/%s on %s (call Simulate first)",
			suite, workload, machine)
	}
	return r, nil
}

// Observations converts a (machine, suite) run set into model
// observations, sorted by workload name for determinism — the one fit
// input ordering of every kind and of the Provider.
func (l *Lab) Observations(machine, suite string) ([]core.Observation, error) {
	s, ok := l.suiteSet[suite]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown suite %q", suite)
	}
	obs := make([]core.Observation, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		r, err := l.Run(machine, suite, w.Name)
		if err != nil {
			return nil, err
		}
		o, err := core.ObservationFrom(w.Name, &r.Counters)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s on %s: %w", suite, w.Name, machine, err)
		}
		obs = append(obs, o)
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Name < obs[j].Name })
	return obs, nil
}

// MachineRuns packages a (machine, suite) run set for delta stacks.
func (l *Lab) MachineRuns(machine, suite string) ([]core.MachineRun, error) {
	s, ok := l.suiteSet[suite]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown suite %q", suite)
	}
	runs := make([]core.MachineRun, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		r, err := l.Run(machine, suite, w.Name)
		if err != nil {
			return nil, err
		}
		runs = append(runs, core.MachineRun{Name: w.Name, Ctr: r.Counters})
	}
	return runs, nil
}

// ResetModels drops all cached fitted models (simulation results are
// kept), and from then on the lab neither reads nor writes fits in the
// run store. Benchmarks use this so every iteration re-runs the
// regression.
func (l *Lab) ResetModels() {
	l.models = map[modelKey]*core.Model{}
	l.skipFitStore = true
}

// Model fits (or returns the cached) mechanistic-empirical model for the
// (machine, suite) pair — e.g. the paper's "CPU2006 model" for Core i7.
// The machine parameters come from the campaign machine itself, so
// derived variants fit against their own configuration. With a run
// store, a fit of the same inputs stored by any earlier run is read
// instead of re-running the regression (runstore.FitKey), and a new fit
// is written back. It is the one fit entry point of every kind and of
// the Provider, so batch and serving paths produce bit-identical models
// for identical inputs.
func (l *Lab) Model(machine, suite string) (*core.Model, error) {
	key := modelKey{machine: machine, suite: suite}
	if m, ok := l.models[key]; ok {
		return m, nil
	}
	obs, err := l.Observations(machine, suite)
	if err != nil {
		return nil, err
	}
	mc, err := l.Machine(machine)
	if err != nil {
		return nil, err
	}
	m, err := l.fit(mc, suite, obs, core.FitOptions{})
	if err != nil {
		return nil, err
	}
	l.models[key] = m
	return m, nil
}

// fit runs the regression of obs, the named suite's observations on mc,
// with the lab's starts and seed and the ablation switches of opts,
// through the run store when the lab has one and ResetModels has not
// been called. It is the lab's one core.Fit call: Model and the
// ablation study both fit here, so both read stored fits.
func (l *Lab) fit(mc *uarch.Machine, suite string, obs []core.Observation, opts core.FitOptions) (*core.Model, error) {
	mp := mc.Params()
	opts.Starts, opts.Seed = l.opts.FitStarts, l.opts.Seed
	store := l.opts.Store
	if store == nil || l.skipFitStore {
		return core.Fit(mp, obs, opts)
	}
	key := runstore.FitKey(mp, obs, opts)
	p, ok, err := store.GetFit(key)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s fit on %s: %w", suite, mc.Name, err)
	}
	if ok {
		return core.NewModel(mp, p, opts), nil
	}
	m, err := core.Fit(mp, obs, opts)
	if err != nil {
		return nil, err
	}
	if err := store.Put(key, m.P); err != nil {
		return nil, fmt.Errorf("experiments: %s fit on %s: %w", suite, mc.Name, err)
	}
	return m, nil
}

// extrapolate evaluates the model with coefficients p at machine m over
// the named suite: frozen empirical coefficients, m's own machine
// parameters, m's measured counters. It fills pt's suite-mean simulated
// and model CPIs and stacks, accumulated in a fixed order (observations
// sorted by workload name, components in stack order), so identical
// inputs produce bit-identical floats. Plans and the optimizer both
// evaluate their cells through here.
func (l *Lab) extrapolate(pt *PlanPoint, m *uarch.Machine, suite string, p core.Params) error {
	obs, err := l.Observations(m.Name, suite)
	if err != nil {
		return err
	}
	extrap := &core.Model{Machine: m.Params(), P: p}
	n := float64(len(obs))
	for i := range obs {
		o := &obs[i]
		pt.SimCPI += o.MeasuredCPI / n
		pt.ModelCPI += extrap.PredictCPI(o.Feat) / n
		ms := extrap.Stack(o.Feat)
		r, err := l.Run(m.Name, suite, o.Name)
		if err != nil {
			return err
		}
		ts := r.Truth.CPIStack(r.Counters.Uops)
		for _, c := range sim.Components() {
			pt.SimStack.Cycles[c] += ts.Cycles[c] / n
			pt.ModelStack.Cycles[c] += ms.Cycles[c] / n
		}
	}
	return nil
}
