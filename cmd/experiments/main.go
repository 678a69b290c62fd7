// Command experiments regenerates the paper's tables and figures from
// scratch: it simulates the campaign's benchmark suites on its machines,
// fits the mechanistic-empirical models, and prints each requested
// artifact.
//
// Usage:
//
//	experiments [-run all|table1|table2|fig2|fig3|fig4|fig5|fig6|ablation]
//	            [-ops N] [-starts N] [-store DIR] [-scenario FILE]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Everything is deterministic; re-running reproduces identical output.
// With -store DIR, simulation results are cached content-addressed on
// disk: a warm rerun performs zero new simulations and still emits
// byte-identical artifacts. With -scenario FILE the campaign comes from
// a declarative JSON scenario (machines — stock or derived — × suites)
// instead of the paper's fixed grid; only the campaign-generic artifacts
// (table1, table2, fig2) run there, as the rest are defined in terms of
// the paper's specific machines and suites.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/runstore"
)

// artifact is one producible output. The table is the single source of
// truth for -run validation, simulation need, scenario compatibility,
// and dispatch, so the flag's accepted values and the emitters cannot
// drift apart.
type artifact struct {
	name     string
	needsSim bool // requires the simulation campaign (not just configs)
	generic  bool // meaningful under any campaign, not only the paper grid
	emit     func(l *experiments.Lab) (string, error)
}

var artifacts = []artifact{
	{"table1", false, true, func(l *experiments.Lab) (string, error) {
		return l.Table1(), nil
	}},
	{"table2", false, true, func(l *experiments.Lab) (string, error) {
		_, text, err := l.Table2()
		return text, err
	}},
	{"fig2", true, true, func(l *experiments.Lab) (string, error) {
		_, text, err := l.Fig2()
		return text, err
	}},
	{"fig3", true, false, func(l *experiments.Lab) (string, error) {
		_, text, err := l.Fig3()
		return text, err
	}},
	{"fig4", true, false, func(l *experiments.Lab) (string, error) {
		_, text, err := l.Fig4()
		return text, err
	}},
	{"fig5", true, false, func(l *experiments.Lab) (string, error) {
		_, text, err := l.Fig5("core2", "cpu2006")
		return text, err
	}},
	{"fig6", true, false, func(l *experiments.Lab) (string, error) {
		_, text, err := l.Fig6()
		return text, err
	}},
	{"ablation", true, false, func(l *experiments.Lab) (string, error) {
		_, text, err := l.Ablations("core2")
		return text, err
	}},
}

func artifactNames() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}

func main() {
	run := flag.String("run", "all", "which artifact to produce: all, "+strings.Join(artifactNames(), ", "))
	ops := flag.Int("ops", 0, "µops per workload (default: the scenario's ops, else 1200000 — capacity effects need ≥1M)")
	starts := flag.Int("starts", 0, "regression multi-start count (default: the scenario's fitStarts, else 12)")
	storeDir := flag.String("store", "", "run-store directory for cached simulation results (empty = no cache)")
	scenario := flag.String("scenario", "", "JSON scenario file declaring the campaign (empty = the paper's grid)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	err = realMain(os.Stdout, os.Stderr, *run, *ops, *starts, *storeDir, *scenario)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(out, stderr io.Writer, run string, ops, starts int, storeDir, scenario string) error {
	var selected []artifact
	for _, a := range artifacts {
		if run == "all" || run == a.name {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -run value %q (want all, %s)", run, strings.Join(artifactNames(), ", "))
	}

	var store *runstore.Store
	if storeDir != "" {
		var err error
		if store, err = runstore.Open(storeDir); err != nil {
			return err
		}
	}
	opts := experiments.Options{NumOps: ops, FitStarts: starts, Store: store}

	var lab *experiments.Lab
	if scenario == "" {
		// The paper campaign defaults to 1.2M µops (capacity effects —
		// e.g. the i7's larger LLC removing misses — need ≥1M) and the
		// paper's 12 fit starts; explicit flags override.
		if opts.NumOps <= 0 {
			opts.NumOps = 1200000
		}
		if opts.FitStarts <= 0 {
			opts.FitStarts = 12
		}
		lab = experiments.NewLab(opts)
	} else {
		campaign, err := experiments.LoadCampaign(scenario)
		if err != nil {
			return err
		}
		if lab, err = experiments.NewCampaignLab(campaign, opts); err != nil {
			return err
		}
		if run == "all" {
			kept := selected[:0]
			for _, a := range selected {
				if a.generic {
					kept = append(kept, a)
				}
			}
			selected = kept
		} else if !selected[0].generic {
			return fmt.Errorf("artifact %q is defined by the paper campaign; drop -scenario to produce it", run)
		}
	}

	needsSim := false
	for _, a := range selected {
		needsSim = needsSim || a.needsSim
	}
	if needsSim {
		fmt.Fprintf(stderr, "simulating %d workloads × %d machines (%d µops each)...\n",
			lab.NumWorkloads(), len(lab.Machines()), lab.NumOps())
		t0 := time.Now()
		if err := lab.Simulate(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "simulation done in %v\n", time.Since(t0).Round(time.Millisecond))
		if store != nil {
			st := lab.SimStats()
			fmt.Fprintf(stderr, "run store %s: %d hits, %d simulated (%.1f%% hit rate)\n",
				store.Dir(), st.Hits, st.Simulated,
				100*float64(st.Hits)/float64(st.Hits+st.Simulated))
		}
		fmt.Fprintln(stderr)
	}

	for _, a := range selected {
		text, err := a.emit(lab)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
	}
	return nil
}
