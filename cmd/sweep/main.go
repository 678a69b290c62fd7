// Command sweep runs micro-architecture parameter explorations: it
// derives machines from a registered base, simulates a suite on every
// point (incrementally, through the run store), fits the
// mechanistic-empirical model at the base configuration, and prints
// sensitivity tables of simulated vs model-predicted CPI.
//
// With one -param/-values pair it is the classic one-axis sweep,
// overall and per CPI-stack component — the model-extrapolation
// experiment the paper gestures at but never runs. Repeating
// -param/-values crosses the axes into a multi-axis exploration plan: a
// full grid of derived machines, fitted once at the base point and
// extrapolated per cell, with every workload's µop trace materialized
// once and replayed across all grid machines. -plan loads the same grid
// from a strict-JSON plan file ({"base": ..., "axes": [...], "suite":
// ...}), the format POST /v1/plan accepts over the wire.
//
// -optimize searches a grid instead of enumerating it: it loads a
// strict-JSON optimize spec ({"base": ..., "axes": [...], "suite": ...,
// "objective": ..., "search": ...} — the POST /v1/optimize format),
// fits the model once at the base point and lets coordinate descent or
// successive halving probe only the cells the search needs, printing
// the best point (or Pareto frontier) with per-component CPI stacks and
// the probe count.
//
// -seeds replicates a whole campaign across workload-generator seeds:
// it loads a strict-JSON seeds spec ({"base": ..., "suite": ...,
// "seeds": [...]} or {"campaign": ..., "count": N} — the POST /v1/seeds
// format), simulates and fits every (machine, suite) cell once per
// seed, and prints mean, sample standard deviation and Student-t 95%
// confidence intervals on CPI and model error, plus a per-coefficient
// fit-stability table. Store keys include the seed, so reruns and
// overlapping sweeps stay warm.
//
// In every mode, -json prints the wire-format report — the body the
// matching POST /v1/<kind> endpoint answers — instead of the table.
//
// Usage:
//
//	sweep -base core2 -param rob -values 32,64,128,256
//	      [-suite cpu2006] [-ops N] [-starts N] [-store DIR]
//	sweep -base core2 -param rob -values 64,128 -param memlat -values 150,300
//	sweep -plan grid.json [-ops N] [-starts N] [-store DIR]
//	sweep -optimize spec.json [-ops N] [-starts N] [-store DIR]
//	sweep -seeds spec.json [-ops N] [-starts N] [-store DIR]
//	      [-json] [-cpuprofile FILE] [-memprofile FILE]
//
// Everything is deterministic; with -store DIR a repeated run
// dispatches zero simulations (100% run-store hits) and regenerates
// zero traces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/runstore"
)

// multiFlag collects repeated occurrences of one flag, so -param and
// -values can be given once per grid axis.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var paramDocs []string
	for _, p := range experiments.SweepParams() {
		paramDocs = append(paramDocs, p.Name)
	}
	base := flag.String("base", "core2", "base machine to derive exploration points from")
	var params, valueLists multiFlag
	flag.Var(&params, "param", "parameter to explore, repeatable for a grid: "+strings.Join(paramDocs, ", "))
	flag.Var(&valueLists, "values", "comma-separated values for the matching -param (repeat once per axis), e.g. 32,64,128,256")
	planFile := flag.String("plan", "", "plan file (strict JSON {base, axes, suite}); replaces -base/-param/-values/-suite")
	optimizeFile := flag.String("optimize", "", "optimize spec file (strict JSON {base, axes, suite, objective[, search]}); replaces -base/-param/-values/-suite")
	seedsFile := flag.String("seeds", "", "seeds spec file (strict JSON {base, suite, seeds|count} or {campaign, seeds|count}); replaces -base/-param/-values/-suite")
	jsonOut := flag.Bool("json", false, "print the wire-format JSON report instead of the table")
	suite := flag.String("suite", "cpu2006", "suite to simulate and fit on")
	ops := flag.Int("ops", 300000, "µops per workload")
	starts := flag.Int("starts", 12, "regression multi-start count")
	storeDir := flag.String("store", "", "run-store directory for cached simulation results (empty = no cache)")
	workers := flag.Int("workers", 0, "simulation worker count (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	err = realMain(os.Stdout, os.Stderr, *base, params, valueLists, *suite, *ops, *starts, *workers, *storeDir, *planFile, *optimizeFile, *seedsFile, *jsonOut)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseValues(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no -values given (want e.g. -values 32,64,128)")
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad sweep value %q: %w", f, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("sweep value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseAxes pairs each -param occurrence with the -values occurrence at
// the same position.
func parseAxes(params, valueLists []string) ([]experiments.PlanAxis, error) {
	if len(params) != len(valueLists) {
		return nil, fmt.Errorf("%d -param flags but %d -values flags (give one -values per -param)",
			len(params), len(valueLists))
	}
	axes := make([]experiments.PlanAxis, 0, len(params))
	for i, p := range params {
		vals, err := parseValues(valueLists[i])
		if err != nil {
			return nil, err
		}
		axes = append(axes, experiments.PlanAxis{Param: p, Values: vals})
	}
	return axes, nil
}

func realMain(out, stderr io.Writer, baseName string, params, valueLists []string, suiteName string, ops, starts, workers int, storeDir, planFile, optimizeFile, seedsFile string, jsonOut bool) error {
	opts := experiments.Options{NumOps: ops, FitStarts: starts, Workers: workers}
	if storeDir != "" {
		store, err := runstore.Open(storeDir)
		if err != nil {
			return err
		}
		opts.Store = store
	}
	spec, err := jobSpec(baseName, params, valueLists, suiteName, planFile, optimizeFile, seedsFile)
	if err != nil {
		return err
	}
	// Resolving validates everything before anything simulates.
	exp, err := experiments.ResolveJob(spec, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "running %s: up to %d runs (%d µops/workload)...\n", spec.Kind, exp.Totals.TotalRuns, ops)
	t0 := time.Now()
	res, err := exp.Run(context.Background(), opts, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s done in %v\n", spec.Kind, time.Since(t0).Round(time.Millisecond))
	// The trace count shows how many µop streams were actually generated:
	// a warm store regenerates none, and a cold grid generates one per
	// workload, not one per cell.
	st := res.Stats
	if opts.Store != nil {
		fmt.Fprintf(stderr, "run store %s: %d hits, %d simulated (%.1f%% hit rate), %d traces generated\n",
			opts.Store.Dir(), st.Hits, st.Simulated,
			100*float64(st.Hits)/float64(st.Hits+st.Simulated), st.TraceGens)
	} else {
		fmt.Fprintf(stderr, "%d simulated, %d traces generated\n", st.Simulated, st.TraceGens)
	}
	fmt.Fprintln(stderr)

	if jsonOut {
		data, err := json.MarshalIndent(res.Report, "", "  ")
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	}
	_, err = fmt.Fprint(out, res.Render())
	return err
}

// jobSpec builds the experiment the flags select: a seeds, optimize or
// plan file, or the -param/-values axes on -base and -suite — one axis
// is a sweep, several a grid plan.
func jobSpec(baseName string, params, valueLists []string, suiteName, planFile, optimizeFile, seedsFile string) (experiments.JobSpec, error) {
	modes := 0
	for _, set := range []bool{seedsFile != "", optimizeFile != "", planFile != "", len(params)+len(valueLists) > 0} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return experiments.JobSpec{}, fmt.Errorf("-seeds, -optimize, -plan and -param/-values replace one another; give one")
	}
	switch {
	case seedsFile != "":
		spec, err := experiments.LoadSeedsSpec(seedsFile)
		return experiments.JobSpec{Kind: experiments.JobKindSeeds, Seeds: &spec}, err
	case optimizeFile != "":
		spec, err := experiments.LoadOptimizeSpec(optimizeFile)
		return experiments.JobSpec{Kind: experiments.JobKindOptimize, Optimize: &spec}, err
	case planFile != "":
		spec, err := experiments.LoadPlanSpec(planFile)
		return experiments.JobSpec{Kind: experiments.JobKindPlan, Plan: &spec}, err
	}

	if len(params) == 0 {
		if len(valueLists) == 0 {
			return experiments.JobSpec{}, fmt.Errorf("no -values given (want e.g. -values 32,64,128)")
		}
		params = []string{"rob"}
	}
	axes, err := parseAxes(params, valueLists)
	if err != nil {
		return experiments.JobSpec{}, err
	}
	base := experiments.MachineSpec{Name: baseName}
	if len(axes) == 1 {
		return experiments.JobSpec{Kind: experiments.JobKindSweep, Sweep: &experiments.SweepSpec{
			Base: base, Param: axes[0].Param, Values: axes[0].Values, Suite: suiteName}}, nil
	}
	return experiments.JobSpec{Kind: experiments.JobKindPlan, Plan: &experiments.PlanSpec{
		Base: base, Axes: axes, Suite: suiteName}}, nil
}
