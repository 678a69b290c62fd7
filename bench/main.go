// Command bench is the repository's end-to-end benchmark. It runs one
// named workload through the public APIs of internal/experiments and
// internal/serve, checks every output, and prints each metric by name
// and unit, ending with one JSON line:
//
//	bench --workload campaign-cold --seed 0 --seconds 20 --trace 0
//	bench compare parent.jsonl change.jsonl
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// instead runs the workload once on one goroutine, timing every call
// into a layer (trace, sim, runstore, core, experiments, serve), and
// reports the per-layer stack. bench/README.md has the details.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// size fixes how much work one run does; a run's length in time is set
// separately by --seconds.
type size struct {
	ops       int // µops per workload trace
	fitStarts int // model-fit multi-starts
	// setups is how many set-ups a run times: the batch workloads'
	// instances, or serve-predict's repeated warm-up. setup_s is their
	// median, which for two is their mean.
	setups int
	// warmup is serve-predict's unmeasured closed-loop warm-up.
	warmup time.Duration
	// tracedRequests is the request count of serve-predict's traced pass.
	tracedRequests int
	// pinned makes seed-0 outputs match digests.json, which is recorded
	// at this size only.
	pinned bool
}

// fullSize is what the benchmark measures. 100K µops and two set-ups
// keep every run, set-up included, near 30 s on a 2-core host, which a
// full paired campaign of runs allows.
var fullSize = size{ops: 100_000, fitStarts: 12, setups: 2, warmup: 2 * time.Second,
	tracedRequests: 2000, pinned: true}

// serveClients is the closed loop's concurrency: one client per core of
// the 2-core reference host, all from this one process.
const serveClients = 2

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload. An operation is one iteration of a batch workload or one
// request of serve-predict.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of the run's set-ups
	{"latency_ms", "ms"},  // median wall time of one operation
	{"ops_per_s", "1/s"},  // correct operations per measured second
	{"alloc_kb_op", "KB"}, // heap allocated per operation
	{"max_rss_mb", "MB"},  // peak resident set of the run's process
}

// layerKinds are the span names of the traced run, one per layer call.
var layerKinds = []string{
	"suites.load", "trace.generate", "trace.decode", "sim.run",
	"runstore.get", "runstore.put", "core.observe", "core.fit", "core.predict",
	"experiments.fitted", "serve.handler",
}

// perLayer are the metrics of a traced run, reported on every workload;
// a layer the workload does not use reports zero calls and 0%.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"traced.wall_s", "s"},     // the traced pass, glue included
		{"traced.glue_pct", "%"},   // the pass's time outside any layer call
		{"experiments.job_s", "s"}, // the real entry point at Workers=1
		// Layer time (serve.handler excluded) over experiments.job_s. On
		// serve-predict 1 minus it is serve's own share of a request:
		// routing and JSON decode/encode.
		{"experiments.coverage", "ratio"},
		{"experiments.simulated", "count"},
		{"experiments.hits", "count"},
		{"experiments.trace_gens", "count"},
		{"sim.reuse", "ratio"}, // simulations per generated or decoded trace
		{"sim.uops_m", "Mop"},
		{"trace.decode.mb", "MB"},
		{"runstore.get.hit_ratio", "ratio"},
		{"runstore.put_kb", "KB"},
		{"core.fit.alloc_mb", "MB"},
		{"core.model_err_pct", "%"},
		{"serve.resp_kb", "KB"},
	}
	for _, k := range layerKinds {
		defs = append(defs, metricDef{k + ".calls", "count"}, metricDef{k + ".pct", "%"})
	}
	return defs
}()

// runConfig is one invocation of a workload.
type runConfig struct {
	seed    uint64
	seconds time.Duration // measured window
	size    size
	dir     string // scratch directory for stores and trace files
	spans   string // traced runs write their spans here ("" = nowhere)
}

// outcome collects what a workload run reports.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	log               io.Writer // human-readable report lines
}

func (o *outcome) notef(format string, args ...any) {
	fmt.Fprintf(o.log, "bench: "+format+"\n", args...)
}

// fail counts one failed operation and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notef("FAIL: "+format, args...)
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(rc runConfig, o *outcome) error
}{
	"campaign-cold": {runCampaignCold, traceCampaignCold},
	"campaign-warm": {runCampaignWarm, traceCampaignWarm},
	"plan-file":     {runPlanFile, tracePlanFile},
	"serve-predict": {runServePredict, traceServePredict},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

//go:embed digests.json
var digestsJSON []byte

// checkDigest compares out with the digest pinned for kind at seed 0. On
// a mismatch or a missing pin it prints the output's digest, which is
// how digests.json is recorded, and reports false.
func checkDigest(rc runConfig, o *outcome, kind string, out []byte) bool {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if rc.seed != 0 || !rc.size.pinned {
		return true
	}
	var pinned map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		o.notef("digests.json: %v", err)
		return false
	}
	if pinned[kind] != got {
		o.notef("digest %s: got %s, pinned %q", kind, got, pinned[kind])
		return false
	}
	return true
}

// result is the final line of a run, the one tools parse.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxRSSMB is the peak resident set of this process. Each invocation
// runs one workload, so it is that workload's peak, set-up included.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runWorkload runs one workload and assembles its result. An error from
// the workload itself (as opposed to a failed operation) counts as one
// more failed operation.
func runWorkload(name string, traced bool, rc runConfig, log io.Writer) (result, error) {
	w, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	o := &outcome{values: map[string]float64{}, log: log}
	run, defs := w.run, endToEnd
	if traced {
		run, defs = w.trace, perLayer
	}
	if err := run(rc, o); err != nil {
		o.attempted++
		o.fail("%v", err)
	}
	if !traced {
		o.values["max_rss_mb"] = maxRSSMB()
	}
	res := result{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && res.Correct {
			return result{}, fmt.Errorf("workload %s did not report %s", name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// outDir holds the traced runs' span files and the log of every run's
// result, relative to the repository root the benchmark runs from.
const outDir = "bench/out"

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", 0, "workload seed; 0 is the canonical instantiation whose outputs are pinned")
	seconds := fs.Float64("seconds", 20, "measured window of an untraced run")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer stack")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "bench: need --workload one of %v, --trace 0|1 and --seconds >= 0\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		size: fullSize, dir: dir}
	if *traced == 1 {
		rc.spans = filepath.Join(outDir, "trace-"+*name+".json")
	}
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%g trace=%d ops=%d fitStarts=%d nproc=%d GOMAXPROCS=%d %s\n",
		*name, *seed, *seconds, *traced, rc.size.ops, rc.size.fitStarts,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := runWorkload(*name, *traced == 1, rc, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := appendRun(filepath.Join(outDir, "runs.jsonl"), *name, *seed, *traced == 1, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// loggedRun is one line of bench/out/runs.jsonl, the input of compare.
type loggedRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Result   result `json:"result"`
}

func appendRun(path, name string, seed uint64, traced bool, res result) error {
	line, err := json.Marshal(loggedRun{Workload: name, Seed: seed, Traced: traced, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
