// Command mecpi is the user-facing tool of the library: it fits a
// mechanistic-empirical performance model for a machine from a benchmark
// suite and prints CPI stacks — the paper's headline capability of
// constructing CPI stacks "on real hardware" (here: on the simulated
// machines, from performance counters only).
//
// Usage:
//
//	mecpi [-machine core2] [-suite cpu2006] [-workload mcf] [-ops N]
//	      [-starts N] [-truth] [-store DIR]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// Without -workload it prints the fitted model and the suite-wide
// accuracy; with -workload it prints that workload's CPI stack, and with
// -truth also the simulator's ground-truth stack next to it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/runstore"
	"repro/internal/stack"
	"repro/internal/suites"
	"repro/internal/uarch"
)

func main() {
	machine := flag.String("machine", "core2", "target machine: "+strings.Join(uarch.Names(), ", "))
	suiteName := flag.String("suite", "cpu2006", "suite to infer the model from: "+strings.Join(suites.Names(), ", "))
	workload := flag.String("workload", "", "workload whose CPI stack to print (default: suite summary)")
	ops := flag.Int("ops", 300000, "µops per workload")
	starts := flag.Int("starts", 12, "regression multi-start count")
	truth := flag.Bool("truth", false, "also print the simulator's ground-truth stack")
	characterize := flag.Bool("characterize", false, "classify every workload by its dominant CPI component")
	storeDir := flag.String("store", "", "run-store directory for cached simulation results (empty = no cache)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mecpi:", err)
		os.Exit(1)
	}
	err = realMain(os.Stdout, *machine, *suiteName, *workload, *ops, *starts, *truth, *characterize, *storeDir)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mecpi:", err)
		os.Exit(1)
	}
}

func realMain(out io.Writer, machineName, suiteName, workload string, ops, starts int, truth, characterize bool, storeDir string) error {
	m, err := uarch.ByName(machineName)
	if err != nil {
		return err
	}
	suite, err := suites.ByName(suiteName, suites.Options{NumOps: ops})
	if err != nil {
		return err
	}
	var store *runstore.Store
	if storeDir != "" {
		if store, err = runstore.Open(storeDir); err != nil {
			return err
		}
	}

	// The provider is the same simulate+fit path the mecpid daemon
	// serves from, so this one-shot answer is bit-identical to the
	// daemon's for identical options.
	prov := experiments.NewProvider(experiments.Options{NumOps: ops, FitStarts: starts, Store: store})

	fmt.Fprintf(os.Stderr, "running %d workloads on %s...\n", len(suite.Workloads), m.Name)
	fmt.Fprintf(os.Stderr, "fitting the mechanistic-empirical model...\n")
	f, err := prov.Fitted(m, suiteName)
	if err != nil {
		return err
	}
	obs, model, runs := f.Obs, f.Model, f.Runs
	if store != nil {
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "run store %s: %d hits, %d misses\n", store.Dir(), st.Hits, st.Misses)
	}

	if characterize {
		fmt.Fprint(out, core.RenderCharacterization(core.Characterize(model, obs)))
		fmt.Fprintln(out)
		fmt.Fprint(out, stack.RenderCPIStack(
			fmt.Sprintf("mean CPI stack of %s on %s", suite.Name, m.Name),
			core.SuiteProfile(model, obs)))
		return nil
	}

	if workload == "" {
		fmt.Fprintln(out, model)
		ws, acc := experiments.Score(model, obs)
		fmt.Fprintf(out, "\nsuite accuracy on %s/%s: avg err %.1f%%, max %.1f%%, %.0f%% of benchmarks < 20%%\n",
			m.Name, suite.Name, 100*acc.AvgRelErr, 100*acc.MaxRelErr, 100*acc.FracBelow20Pct)
		fmt.Fprintf(out, "\nper-workload CPI (measured → predicted):\n")
		for _, w := range ws {
			fmt.Fprintf(out, "  %-14s %7.3f → %7.3f  (%+5.1f%%)\n",
				w.Workload, w.MeasuredCPI, w.PredictedCPI, 100*w.RelErr)
		}
		return nil
	}

	target, err := f.Observation(workload)
	if err != nil {
		return err
	}
	predStack := model.Stack(target.Feat)
	if truth {
		truthStack := runs[workload].Truth.CPIStack(runs[workload].Counters.Uops)
		fmt.Fprint(out, stack.RenderComparison(
			fmt.Sprintf("CPI stack for %s on %s (model vs ground truth):", workload, m.Name),
			predStack, truthStack))
		return nil
	}
	fmt.Fprint(out, stack.RenderCPIStack(
		fmt.Sprintf("CPI stack for %s on %s", workload, m.Name), predStack))
	fmt.Fprintf(out, "measured CPI: %.4f\n", target.MeasuredCPI)
	return nil
}
