package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/serve"
	"repro/internal/suites"
	"repro/internal/trace"
)

// A batch run draws its inputs from its seed as size.setups instances,
// sets each one up, and cycles its iterations through them: the model
// fits' work depends on the data, so a value averaged over several
// datasets varies less from seed to seed than one dataset's would.
// Instance 0 is the seed itself, so seed 0's instance 0 is the canonical
// campaign.
func instanceSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<32 }

// batchSpec describes one batch workload for runBatch.
type batchSpec[S any] struct {
	// setup prepares instance i in its own directory; it is timed. It
	// may also return the output every iteration on the instance must
	// reproduce; without one, the instance's first iteration sets it.
	setup func(dir string, i int) (S, []byte, error)
	// iter runs one iteration on an instance, with dir to write in, and
	// returns its output.
	iter func(s S, dir string) ([]byte, error)
	// digest names instance 0's output in digests.json.
	digest string
}

// runBatch times a batch workload: the set-up of every instance, then
// iterations until the measured window is spent (at least one). Each
// iteration's output must equal its instance's reference and, for
// instance 0 at seed 0, the pinned digest. Latency and allocation are
// the median over the instances of each instance's median, so that no
// instance weighs more for having run once more.
func runBatch[S any](rc runConfig, o *outcome, b batchSpec[S]) error {
	states := make([]S, max(rc.size.setups, 1))
	refs := make([][]byte, len(states))
	setups := make([]float64, len(states))
	for i := range states {
		dir, err := os.MkdirTemp(rc.dir, "setup-")
		if err != nil {
			return err
		}
		start := time.Now()
		states[i], refs[i], err = b.setup(dir, i)
		setups[i] = time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
	}

	lat, alloc := make([][]float64, len(states)), make([][]float64, len(states))
	busy, ok, n := 0.0, 0, 0
	var ms runtime.MemStats
	for k, window := 0, time.Now(); ; k++ {
		i := k % len(states)
		dir, err := os.MkdirTemp(rc.dir, "iter-")
		if err != nil {
			return err
		}
		// Each iteration starts from a collected heap, as a fresh process
		// running one campaign or plan does; otherwise the previous
		// iteration's garbage decides where the peak RSS falls.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		out, err := b.iter(states[i], dir)
		d := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		os.RemoveAll(dir)
		o.attempted++
		lat[i], alloc[i] = append(lat[i], d), append(alloc[i], float64(ms.TotalAlloc-before))
		busy, n = busy+d, n+1
		switch {
		case err != nil:
			o.fail("iteration %d: %v", k+1, err)
		case refs[i] != nil && !bytes.Equal(out, refs[i]):
			o.fail("iteration %d: output differs from instance %d's reference", k+1, i)
		case i == 0 && !checkDigest(rc, o, b.digest, out):
			o.fail("iteration %d: %s output does not match its pinned digest", k+1, b.digest)
		default:
			ok++
		}
		if refs[i] == nil {
			refs[i] = out
		}
		if time.Since(window) >= rc.seconds {
			break
		}
	}
	o.notef("set-ups %v s; %d iterations, by instance: %v s", setups, n, lat)
	o.values["setup_s"] = median(setups)
	o.values["latency_ms"] = 1000 * medianOfMedians(lat)
	o.values["ops_per_s"] = float64(ok) / busy
	o.values["alloc_kb_op"] = medianOfMedians(alloc) / 1024
	return nil
}

// labOptions are the experiments options of instance i: its seed draws
// the synthetic workloads, Workers stays at its GOMAXPROCS default.
func labOptions(rc runConfig, i int) experiments.Options {
	return experiments.Options{NumOps: rc.size.ops, FitStarts: rc.size.fitStarts,
		SeedBase: instanceSeed(rc.seed, i)}
}

// fig2 runs the paper campaign through store and renders Figure 2.
func fig2(opts experiments.Options, store *runstore.Store) ([]byte, error) {
	opts.Store = store
	lab := experiments.NewLab(opts)
	if err := lab.Simulate(); err != nil {
		return nil, err
	}
	_, text, err := lab.Fig2()
	return []byte(text), err
}

// coldCampaign is both campaigns' set-up: instance i's campaign run into
// an empty store in dir, as a cold lab runs it. It returns the options
// of the instance, pointing at the store it filled, and the Figure 2
// every iteration on the instance must reproduce, cold or warm.
func coldCampaign(rc runConfig, dir string, i int) (experiments.Options, []byte, error) {
	opts := labOptions(rc, i)
	store, err := runstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return opts, nil, err
	}
	opts.Store = store
	text, err := fig2(opts, store)
	return opts, text, err
}

// runCampaignCold: every iteration runs the paper campaign into an empty
// run store, so simulation, trace generation and store writes dominate.
func runCampaignCold(rc runConfig, o *outcome) error {
	return runBatch(rc, o, batchSpec[experiments.Options]{
		setup: func(dir string, i int) (experiments.Options, []byte, error) {
			return coldCampaign(rc, dir, i)
		},
		iter: func(opts experiments.Options, dir string) ([]byte, error) {
			store, err := runstore.Open(filepath.Join(dir, "store"))
			if err != nil {
				return nil, err
			}
			return fig2(opts, store)
		},
		digest: "fig2",
	})
}

// runCampaignWarm: every iteration runs the campaign with a fresh lab
// against the store the set-up filled, so the model fits do nearly all
// the work. The warm lab must simulate nothing, and its Figure 2 must be
// byte-identical to the cold one of the set-up.
func runCampaignWarm(rc runConfig, o *outcome) error {
	return runBatch(rc, o, batchSpec[experiments.Options]{
		setup: func(dir string, i int) (experiments.Options, []byte, error) {
			return coldCampaign(rc, dir, i)
		},
		iter: func(opts experiments.Options, _ string) ([]byte, error) {
			lab := experiments.NewLab(opts)
			if err := lab.Simulate(); err != nil {
				return nil, err
			}
			if st := lab.SimStats(); st.Simulated != 0 {
				return nil, fmt.Errorf("warm lab simulated %d runs", st.Simulated)
			}
			_, text, err := lab.Fig2()
			return []byte(text), err
		},
		digest: "fig2",
	})
}

// filePlanSuite is plan-file's workload set: cpu2000, exported as .mtrc
// files so the plan decodes its traces instead of generating them.
const filePlanSuite = "cpu2000"

// exportSuite writes every workload of instance i's suite to dir as a
// trace file.
func exportSuite(rc runConfig, i int, dir string) error {
	s, err := suites.ByName(filePlanSuite, suites.Options{NumOps: rc.size.ops, SeedBase: instanceSeed(rc.seed, i)})
	if err != nil {
		return err
	}
	for _, w := range s.Workloads {
		buf, err := trace.MaterializeSpec(w)
		if err != nil {
			return err
		}
		if err := trace.WriteFile(filepath.Join(dir, w.Name+trace.FileExt), buf); err != nil {
			return err
		}
	}
	return nil
}

// filePlan is plan-file's 3×3 grid on core2 over the exported traces in
// dir: with the base, every trace replays on 10 machines.
func filePlan(dir string) (*experiments.Plan, error) {
	return experiments.PlanSpec{
		Base: experiments.MachineSpec{Name: "core2"},
		Axes: []experiments.PlanAxis{
			{Param: "rob", Values: []int{48, 96, 192}},
			{Param: "mshrs", Values: []int{4, 8, 16}},
		},
		Suite: suites.FilePrefix + dir,
	}.Resolve()
}

// planJSON renders a plan result in its wire shape, with the suite's
// directory dropped so the output does not depend on where it ran.
func planJSON(res *experiments.PlanResult) ([]byte, error) {
	resp := serve.PlanResponseFrom(res)
	resp.Suite = suites.FilePrefix + filePlanSuite
	return json.Marshal(resp)
}

// planOptions: file-backed suites carry their own recorded streams and
// refuse a SeedBase; the seed already chose what was exported.
func planOptions(rc runConfig) experiments.Options {
	return experiments.Options{NumOps: rc.size.ops, FitStarts: rc.size.fitStarts}
}

// runPlanFile: every iteration runs the grid plan without a store over
// the traces exported in set-up.
func runPlanFile(rc runConfig, o *outcome) error {
	return runBatch(rc, o, batchSpec[string]{
		setup: func(dir string, i int) (string, []byte, error) { return dir, nil, exportSuite(rc, i, dir) },
		iter: func(traces string, _ string) ([]byte, error) {
			plan, err := filePlan(traces)
			if err != nil {
				return nil, err
			}
			res, err := experiments.RunPlan(plan, planOptions(rc))
			if err != nil {
				return nil, err
			}
			return planJSON(res)
		},
		digest: "plan",
	})
}
