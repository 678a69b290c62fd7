package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// span is one timed call; Parent 0 marks a root. Spans of one operation
// (a campaign pass, a plan pass, a request) share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// recorder keeps a traced run's spans in memory; the run writes them out
// once it has ended. It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id for end.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: r.now()})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = r.now() }

// call runs f as one span under parent.
func (r *recorder) call(name string, parent int, f func() error) error {
	id := r.begin(name, parent, r.spans[parent-1].Op)
	err := f()
	r.end(id)
	return err
}

// write saves the spans as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// setupRoot names the root span of a traced run's set-up, which the
// per-layer metrics leave out: they describe the operation.
const setupRoot = "setup"

// layerReport carries the per-layer values a traced pass measures
// besides its spans.
type layerReport struct {
	jobS                        float64 // the real entry point at Workers=1 on the same inputs
	entry                       experiments.SimStats
	uops, decodeBytes, putBytes int64
	gets, getHits               int
	fitAlloc                    uint64
	modelErr                    float64 // mean relative error, as a fraction
	respBytes                   float64 // mean response body size
}

// finishTrace turns the spans and lr into the per-layer metrics and
// writes the spans out. Each layer's share is its spans' self time over
// the traced wall time, which is the operations' root spans; what the
// roots spend outside any layer call is the benchmark's own glue, so
// the shares and traced.glue_pct sum to 100.
func finishTrace(rc runConfig, rec *recorder, lr layerReport, o *outcome) error {
	children := map[int][]interval{}
	for _, s := range rec.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	inSetup := map[int]bool{}
	self := map[string]float64{}
	calls := map[string]int{}
	wall := 0.0
	for _, s := range rec.spans { // parents precede their children
		if (s.Parent == 0 && s.Name == setupRoot) || inSetup[s.Parent] {
			inSetup[s.ID] = true
			continue
		}
		st := selfTime(interval{s.Start, s.End}, children[s.ID])
		if s.Parent == 0 {
			wall += s.End - s.Start
			self["glue"] += st
			continue
		}
		self[s.Name] += st
		calls[s.Name]++
	}
	if wall <= 0 || lr.jobS <= 0 {
		return fmt.Errorf("traced pass recorded no time")
	}
	layerBusy := 0.0
	for _, k := range layerKinds {
		o.values[k+".calls"] = float64(calls[k])
		o.values[k+".pct"] = 100 * self[k] / wall
		if k != "serve.handler" {
			layerBusy += self[k]
		}
	}
	o.values["traced.wall_s"] = wall / 1e6
	o.values["traced.glue_pct"] = 100 * self["glue"] / wall
	o.values["experiments.job_s"] = lr.jobS
	o.values["experiments.coverage"] = layerBusy / 1e6 / lr.jobS
	o.values["experiments.simulated"] = float64(lr.entry.Simulated)
	o.values["experiments.hits"] = float64(lr.entry.Hits)
	o.values["experiments.trace_gens"] = float64(lr.entry.TraceGens)
	o.values["sim.reuse"] = 0
	if lr.entry.TraceGens > 0 {
		o.values["sim.reuse"] = float64(lr.entry.Simulated) / float64(lr.entry.TraceGens)
	}
	o.values["sim.uops_m"] = float64(lr.uops) / 1e6
	o.values["trace.decode.mb"] = float64(lr.decodeBytes) / (1 << 20)
	o.values["runstore.get.hit_ratio"] = 0
	if lr.gets > 0 {
		o.values["runstore.get.hit_ratio"] = float64(lr.getHits) / float64(lr.gets)
	}
	o.values["runstore.put_kb"] = float64(lr.putBytes) / (1 << 10)
	o.values["core.fit.alloc_mb"] = float64(lr.fitAlloc) / (1 << 20)
	o.values["core.model_err_pct"] = 100 * lr.modelErr
	o.values["serve.resp_kb"] = lr.respBytes / (1 << 10)
	o.notef("traced pass %.3f s over %d spans, entry point %.3f s, coverage %.3f",
		wall/1e6, len(rec.spans), lr.jobS, o.values["experiments.coverage"])
	if rc.spans == "" {
		return nil
	}
	return rec.write(rc.spans)
}

// observe converts one (machine, suite) run set into model observations
// sorted by workload name, as the Lab does before fitting.
func observe(s suites.Suite, runs map[string]*sim.Result) ([]core.Observation, error) {
	obs := make([]core.Observation, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		r, ok := runs[w.Name]
		if !ok {
			return nil, fmt.Errorf("no run for %s", w.Name)
		}
		o, err := core.ObservationFrom(w.Name, &r.Counters)
		if err != nil {
			return nil, err
		}
		obs = append(obs, o)
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Name < obs[j].Name })
	return obs, nil
}

// fit is one traced core.Fit with the fit options the Lab uses (its
// Seed defaults to 1), its allocations added to lr.
func fit(rec *recorder, parent int, lr *layerReport, m *uarch.Machine, obs []core.Observation, rc runConfig) (*core.Model, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var model *core.Model
	err := rec.call("core.fit", parent, func() (err error) {
		model, err = core.Fit(m.Params(), obs, core.FitOptions{Starts: rc.size.fitStarts, Seed: 1})
		return err
	})
	runtime.ReadMemStats(&ms)
	lr.fitAlloc += ms.TotalAlloc - before
	return model, err
}

// simulators builds one reusable simulator per machine.
func simulators(machines []*uarch.Machine) (map[string]*sim.Simulator, error) {
	out := map[string]*sim.Simulator{}
	for _, m := range machines {
		s, err := sim.New(m)
		if err != nil {
			return nil, err
		}
		out[m.Name] = s
	}
	return out, nil
}

// campaignPass does the paper campaign's work layer by layer on one
// goroutine, in the order Lab.Simulate and Lab.Fig2 do it: a store
// lookup per run; for each workload with misses, one generated trace
// replayed on every machine that missed, each result stored; then per
// (suite, machine) the observations, the fit and the predictions. It
// returns the Figure 2 panels rebuilt from those calls.
func campaignPass(rec *recorder, rc runConfig, store *runstore.Store, lr *layerReport) ([]experiments.Fig2Panel, error) {
	root := rec.begin("campaign", 0, 1)
	defer rec.end(root)
	lab, err := experiments.NewCampaignLab(experiments.PaperCampaign(), labOptions(rc, 0))
	if err != nil {
		return nil, err
	}
	sims, err := simulators(lab.Machines())
	if err != nil {
		return nil, err
	}
	runs := map[string]map[string]*sim.Result{} // machine → suite/workload
	for _, m := range lab.Machines() {
		runs[m.Name] = map[string]*sim.Result{}
	}
	for _, sn := range lab.SuiteNames() {
		s, _ := lab.Suite(sn)
		for _, w := range s.Workloads {
			var missed []*uarch.Machine
			for _, m := range lab.Machines() {
				var res *sim.Result
				var hit bool
				if err := rec.call("runstore.get", root, func() (err error) {
					res, hit, err = store.GetResult(runstore.SimKey(m, w))
					return err
				}); err != nil {
					return nil, err
				}
				lr.gets++
				if hit {
					lr.getHits++
					runs[m.Name][sn+"/"+w.Name] = res
				} else {
					missed = append(missed, m)
				}
			}
			if len(missed) == 0 {
				continue
			}
			var buf *trace.Buffer
			if err := rec.call("trace.generate", root, func() (err error) {
				buf, err = trace.MaterializeSpec(w)
				return err
			}); err != nil {
				return nil, err
			}
			for _, m := range missed {
				var res *sim.Result
				if err := rec.call("sim.run", root, func() (err error) {
					res, err = sims[m.Name].Run(buf.Replay())
					return err
				}); err != nil {
					return nil, err
				}
				lr.uops += int64(res.Counters.Uops)
				if err := rec.call("runstore.put", root, func() error {
					return store.PutResult(runstore.SimKey(m, w), res)
				}); err != nil {
					return nil, err
				}
				runs[m.Name][sn+"/"+w.Name] = res
			}
		}
	}

	var panels []experiments.Fig2Panel
	for _, sn := range lab.SuiteNames() {
		s, _ := lab.Suite(sn)
		for _, m := range lab.Machines() {
			suiteRuns := map[string]*sim.Result{}
			for _, w := range s.Workloads {
				suiteRuns[w.Name] = runs[m.Name][sn+"/"+w.Name]
			}
			var obs []core.Observation
			if err := rec.call("core.observe", root, func() (err error) {
				obs, err = observe(s, suiteRuns)
				return err
			}); err != nil {
				return nil, err
			}
			model, err := fit(rec, root, lr, m, obs, rc)
			if err != nil {
				return nil, err
			}
			panel := experiments.Fig2Panel{Suite: sn, Machine: m.Name}
			rec.call("core.predict", root, func() error {
				var pred, meas []float64
				for _, o := range obs {
					p := model.PredictCPI(o.Feat)
					pred, meas = append(pred, p), append(meas, o.MeasuredCPI)
					panel.Points = append(panel.Points, stack.ScatterPoint{
						Name: o.Name, Measured: o.MeasuredCPI, Predicted: p})
				}
				errs := stats.RelErrs(pred, meas)
				panel.MARE, panel.MaxErr = stats.Mean(errs), stats.Max(errs)
				panel.FracBelow20 = stats.FractionBelow(errs, 0.20)
				return nil
			})
			panels = append(panels, panel)
		}
	}
	return panels, nil
}

// traceCampaign runs the traced campaign pass through passStore, then
// the real entry point (Lab.Simulate and Lab.Fig2 at Workers=1) through
// entryStore, and checks the two agree bit for bit. Both start from a
// collected heap, so that the second does not collect the first's
// garbage.
func traceCampaign(rc runConfig, o *outcome, rec *recorder, passStore, entryStore *runstore.Store) error {
	var lr layerReport
	before, err := dirSize(passStore.Dir())
	if err != nil {
		return err
	}
	runtime.GC()
	panels, err := campaignPass(rec, rc, passStore, &lr)
	if err != nil {
		return err
	}
	after, err := dirSize(passStore.Dir())
	if err != nil {
		return err
	}
	lr.putBytes = after - before

	opts := labOptions(rc, 0)
	opts.Workers, opts.Store = 1, entryStore
	runtime.GC()
	start := time.Now()
	lab := experiments.NewLab(opts)
	if err := lab.Simulate(); err != nil {
		return err
	}
	entryPanels, text, err := lab.Fig2()
	if err != nil {
		return err
	}
	lr.jobS = time.Since(start).Seconds()
	lr.entry = lab.SimStats()
	for _, p := range entryPanels {
		lr.modelErr += p.MARE / float64(len(entryPanels))
	}

	o.attempted++
	switch {
	case !reflect.DeepEqual(panels, entryPanels):
		o.fail("the layer calls' Figure 2 panels differ from Lab.Fig2's")
	case !checkDigest(rc, o, "fig2", []byte(text)):
		o.fail("Figure 2 does not match its pinned digest")
	}
	return finishTrace(rc, rec, lr, o)
}

func traceCampaignCold(rc runConfig, o *outcome) error {
	passStore, err := runstore.Open(filepath.Join(rc.dir, "pass-store"))
	if err != nil {
		return err
	}
	entryStore, err := runstore.Open(filepath.Join(rc.dir, "entry-store"))
	if err != nil {
		return err
	}
	return traceCampaign(rc, o, newRecorder(), passStore, entryStore)
}

func traceCampaignWarm(rc runConfig, o *outcome) error {
	rec := newRecorder()
	store, err := runstore.Open(filepath.Join(rc.dir, "store"))
	if err != nil {
		return err
	}
	setup := rec.begin(setupRoot, 0, 0)
	opts := labOptions(rc, 0)
	opts.Store = store
	err = experiments.NewLab(opts).Simulate()
	rec.end(setup)
	if err != nil {
		return err
	}
	return traceCampaign(rc, o, rec, store, store)
}

// planPass does plan-file's work layer by layer on one goroutine, as
// RunPlan does it: load the file suite, decode each trace once and
// replay it on every machine of the grid, fit at the base, then
// extrapolate to every cell exactly as the plan engine accumulates it.
func planPass(rec *recorder, rc runConfig, traces string, lr *layerReport) (*experiments.PlanResult, error) {
	root := rec.begin("plan", 0, 1)
	defer rec.end(root)
	plan, err := filePlan(traces)
	if err != nil {
		return nil, err
	}
	var suite suites.Suite
	if err := rec.call("suites.load", root, func() (err error) {
		suite, err = suites.ByName(plan.Suite, suites.Options{NumOps: rc.size.ops})
		return err
	}); err != nil {
		return nil, err
	}
	sims, err := simulators(plan.Machines)
	if err != nil {
		return nil, err
	}
	runs := map[string]map[string]*sim.Result{}
	for _, m := range plan.Machines {
		runs[m.Name] = map[string]*sim.Result{}
	}
	for _, w := range suite.Workloads {
		var buf *trace.Buffer
		if err := rec.call("trace.decode", root, func() (err error) {
			buf, err = trace.MaterializeSpec(w)
			return err
		}); err != nil {
			return nil, err
		}
		info, err := os.Stat(w.SourceFile)
		if err != nil {
			return nil, err
		}
		lr.decodeBytes += info.Size()
		for _, m := range plan.Machines {
			var res *sim.Result
			if err := rec.call("sim.run", root, func() (err error) {
				res, err = sims[m.Name].Run(buf.Replay())
				return err
			}); err != nil {
				return nil, err
			}
			lr.uops += int64(res.Counters.Uops)
			runs[m.Name][w.Name] = res
		}
	}

	base := plan.Machines[0]
	var obs []core.Observation
	if err := rec.call("core.observe", root, func() (err error) {
		obs, err = observe(suite, runs[base.Name])
		return err
	}); err != nil {
		return nil, err
	}
	fitted, err := fit(rec, root, lr, base, obs, rc)
	if err != nil {
		return nil, err
	}
	res := &experiments.PlanResult{Base: base.Name, Axes: plan.Axes, BaseValues: plan.BaseValues(),
		Suite: plan.Suite, NumOps: rc.size.ops}
	for ci, m := range plan.Machines[1:] {
		var cellObs []core.Observation
		if err := rec.call("core.observe", root, func() (err error) {
			cellObs, err = observe(suite, runs[m.Name])
			return err
		}); err != nil {
			return nil, err
		}
		pt := experiments.PlanPoint{Values: plan.Cells[ci], Machine: m.Name}
		rec.call("core.predict", root, func() error {
			extrap := &core.Model{Machine: m.Params(), P: fitted.P}
			n := float64(len(cellObs))
			for _, o := range cellObs {
				pt.SimCPI += o.MeasuredCPI / n
				pt.ModelCPI += extrap.PredictCPI(o.Feat) / n
				ms := extrap.Stack(o.Feat)
				r := runs[m.Name][o.Name]
				ts := r.Truth.CPIStack(r.Counters.Uops)
				for _, c := range sim.Components() {
					pt.SimStack.Cycles[c] += ts.Cycles[c] / n
					pt.ModelStack.Cycles[c] += ms.Cycles[c] / n
				}
			}
			return nil
		})
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func tracePlanFile(rc runConfig, o *outcome) error {
	rec := newRecorder()
	traces := filepath.Join(rc.dir, "traces")
	if err := os.Mkdir(traces, 0o755); err != nil {
		return err
	}
	setup := rec.begin(setupRoot, 0, 0)
	err := exportSuite(rc, 0, traces)
	rec.end(setup)
	if err != nil {
		return err
	}
	var lr layerReport
	runtime.GC() // as in traceCampaign
	rebuilt, err := planPass(rec, rc, traces, &lr)
	if err != nil {
		return err
	}

	plan, err := filePlan(traces)
	if err != nil {
		return err
	}
	opts := planOptions(rc)
	opts.Workers = 1
	runtime.GC()
	start := time.Now()
	res, err := experiments.RunPlan(plan, opts)
	if err != nil {
		return err
	}
	lr.jobS = time.Since(start).Seconds()
	lr.entry = res.Stats
	for _, p := range res.Points {
		lr.modelErr += p.Err() / float64(len(res.Points))
	}

	rebuilt.Stats = res.Stats
	got, err := planJSON(rebuilt)
	if err != nil {
		return err
	}
	want, err := planJSON(res)
	if err != nil {
		return err
	}
	o.attempted++
	switch {
	case string(got) != string(want):
		o.fail("the layer calls' plan cells differ from RunPlan's")
	case !checkDigest(rc, o, "plan", want):
		o.fail("the plan does not match its pinned digest")
	}
	return finishTrace(rc, rec, lr, o)
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
