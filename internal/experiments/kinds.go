package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/suites"
)

// Kind is one registered experiment kind. The Jobs engine, mecpid's
// synchronous endpoints and cmd/sweep all dispatch through Kinds, so a
// new kind is one table entry plus its spec and report types.
type Kind struct {
	// Name is the job kind, the name of its JobSpec payload field and,
	// for a kind with a synchronous endpoint, the route POST /v1/<Name>.
	Name string
	// Doc describes the synchronous endpoint; empty for a kind that only
	// runs as a job.
	Doc string

	payload func(*JobSpec) any // the address of the kind's payload field
	isSet   func(*JobSpec) bool
	resolve func(*JobSpec, Options) (*Experiment, error)
}

// newKind describes a kind whose payload lives in the JobSpec field
// that field addresses, validated and resolved by resolve.
func newKind[S any](name, doc string, field func(*JobSpec) **S, resolve func(*S, Options) (*Experiment, error)) Kind {
	return Kind{
		Name:    name,
		Doc:     doc,
		payload: func(js *JobSpec) any { return field(js) },
		isSet:   func(js *JobSpec) bool { return *field(js) != nil },
		resolve: func(js *JobSpec, opts Options) (*Experiment, error) { return resolve(*field(js), opts) },
	}
}

// kinds is the registration table, in the order GET /v1 lists the
// synchronous endpoints.
var kinds = []Kind{
	newKind(JobKindCampaign, "",
		func(js *JobSpec) **Campaign { return &js.Campaign }, resolveCampaign),
	newKind(JobKindSweep, "one-axis what-if sweep over a derived machine",
		func(js *JobSpec) **SweepSpec { return &js.Sweep }, (*SweepSpec).experiment),
	newKind(JobKindPlan, "multi-axis exploration grid, fitted once and extrapolated per cell",
		func(js *JobSpec) **PlanSpec { return &js.Plan }, (*PlanSpec).experiment),
	newKind(JobKindOptimize, "design-space search (min CPI / min cost / Pareto) over a grid",
		func(js *JobSpec) **OptimizeSpec { return &js.Optimize }, (*OptimizeSpec).experiment),
	newKind(JobKindSeeds, "multi-seed replication sweep: mean/CI on CPI and model error, fit stability",
		func(js *JobSpec) **SeedsSpec { return &js.Seeds }, (*SeedsSpec).experiment),
}

// Kinds returns the registered experiment kinds in registration order.
func Kinds() []Kind { return append([]Kind(nil), kinds...) }

// Payload returns the address of the kind's payload field in spec, for
// decoding a bare payload — a POST /v1/<kind> body — into it.
func (k Kind) Payload(spec *JobSpec) any { return k.payload(spec) }

// ResolveJob validates spec without running anything and returns the
// resolved experiment. The kind must be registered, its payload present
// and every other payload absent — a mis-tagged spec fails loudly
// instead of silently running the wrong experiment — and the payload
// must pass its kind's checks, suite lookups included (an unregistered
// suite fails with suites.ErrUnknownSuite). opts are the executing
// engine's options, which the run totals depend on.
func ResolveJob(spec JobSpec, opts Options) (*Experiment, error) {
	var kind *Kind
	var names []string
	for i := range kinds {
		names = append(names, fmt.Sprintf("%q", kinds[i].Name))
		if kinds[i].Name == spec.Kind {
			kind = &kinds[i]
		}
	}
	if kind == nil {
		return nil, fmt.Errorf("experiments: unknown job kind %q (want %s or %s)",
			spec.Kind, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	}
	if !kind.isSet(&spec) {
		return nil, fmt.Errorf("experiments: %s job without a %s payload", spec.Kind, spec.Kind)
	}
	for _, k := range kinds {
		if k.Name != spec.Kind && k.isSet(&spec) {
			return nil, fmt.Errorf("experiments: %s job with a %s payload", spec.Kind, k.Name)
		}
	}
	return kind.resolve(&spec, opts)
}

// Experiment is a validated experiment of one kind, ready to run.
type Experiment struct {
	// Totals are the submission totals: the run count (for an optimize
	// search, its upper bound), plus the cells, probes or seeds of the
	// kinds that count them.
	Totals JobProgress
	// Run executes the experiment under opts, simulating through
	// opts.Store when configured; it is the one execution path of jobs,
	// POST /v1/<kind> and cmd/sweep. Cancelling ctx stops the dispatch
	// of new simulations and returns ctx.Err(); completed runs stay in
	// the store, so a rerun resumes warm. step, when non-nil, receives
	// the cumulative count of the kind's completion unit — the cells,
	// probes or seeds its Totals count — and is never called
	// concurrently.
	Run func(ctx context.Context, opts Options, step func(done int)) (*Outcome, error)
}

// Outcome is an executed experiment.
type Outcome struct {
	// Report is the kind's wire report: the one JSON shape its POST
	// /v1/<kind> response, its job result and cmd/sweep -json share.
	Report any
	// Stats is this execution's run sourcing.
	Stats SimStats
	// Render returns the text report cmd/sweep prints; nil for a kind
	// cmd/sweep does not run.
	Render func() string
}

// DecodeStrict decodes exactly one JSON document from r into v with the
// scenario-file rules: unknown fields are errors, and so is anything but
// whitespace after the document — a second document and a stray closing
// bracket alike.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// suiteWorkloads returns the named suite's workload count at opts' µop
// count; an unregistered name fails with suites.ErrUnknownSuite.
func suiteWorkloads(name string, opts Options) (int, error) {
	s, err := suites.ByName(name, suites.Options{NumOps: opts.NumOps})
	if err != nil {
		return 0, err
	}
	return len(s.Workloads), nil
}

func resolveCampaign(c *Campaign, opts Options) (*Experiment, error) {
	lab, err := campaignJobLab(*c, opts)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Totals: JobProgress{TotalRuns: len(lab.Machines()) * lab.NumWorkloads()},
		Run: func(ctx context.Context, opts Options, _ func(int)) (*Outcome, error) {
			return runCampaign(ctx, *c, opts)
		},
	}, nil
}

func (sw *SweepSpec) experiment(opts Options) (*Experiment, error) {
	workloads, err := suiteWorkloads(sw.Suite, opts)
	if err != nil {
		return nil, err
	}
	plan, err := sw.Resolve()
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Totals: JobProgress{TotalRuns: len(plan.Machines) * workloads},
		Run: func(ctx context.Context, opts Options, _ func(int)) (*Outcome, error) {
			res, err := RunPlanContext(ctx, plan, opts)
			if err != nil {
				return nil, err
			}
			return &Outcome{Report: res.SweepReport(), Stats: res.Stats, Render: res.RenderSweep}, nil
		},
	}, nil
}

func (ps *PlanSpec) experiment(opts Options) (*Experiment, error) {
	workloads, err := suiteWorkloads(ps.Suite, opts)
	if err != nil {
		return nil, err
	}
	plan, err := ps.Resolve()
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Totals: JobProgress{TotalRuns: len(plan.Machines) * workloads, TotalCells: len(plan.Machines)},
		Run: func(ctx context.Context, opts Options, step func(int)) (*Outcome, error) {
			if step != nil {
				opts.Progress = countCells(plan, workloads, opts.Progress, step)
			}
			res, err := RunPlanContext(ctx, plan, opts)
			if err != nil {
				return nil, err
			}
			return &Outcome{Report: res.Report(), Stats: res.Stats, Render: res.Render}, nil
		},
	}, nil
}

// countCells wraps a run-progress hook to count completed grid cells: a
// cell — the base fit point included — is done once every workload of
// its machine has a run. Progress calls are never concurrent, so the
// countdown needs no lock.
func countCells(plan *Plan, workloads int, progress func(RunKey, bool), step func(int)) func(RunKey, bool) {
	left := make(map[string]int, len(plan.Machines))
	for _, m := range plan.Machines {
		left[m.Name] = workloads
	}
	done := 0
	return func(run RunKey, hit bool) {
		if progress != nil {
			progress(run, hit)
		}
		if left[run.Machine]--; left[run.Machine] == 0 {
			done++
			step(done)
		}
	}
}

func (spec *OptimizeSpec) experiment(opts Options) (*Experiment, error) {
	workloads, err := suiteWorkloads(spec.Suite, opts)
	if err != nil {
		return nil, err
	}
	o, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Totals: JobProgress{TotalRuns: o.runBound(workloads), TotalProbes: o.ProbeBound()},
		Run: func(ctx context.Context, opts Options, step func(int)) (*Outcome, error) {
			rep, err := RunOptimize(ctx, o, opts, step)
			if err != nil {
				return nil, err
			}
			return &Outcome{Report: rep, Stats: rep.Sims, Render: rep.Render}, nil
		},
	}, nil
}

func (spec *SeedsSpec) experiment(opts Options) (*Experiment, error) {
	s, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Totals: JobProgress{TotalRuns: s.TotalRuns(), TotalSeeds: len(s.SeedList)},
		Run: func(ctx context.Context, opts Options, step func(int)) (*Outcome, error) {
			rep, err := RunSeeds(ctx, s, opts, step)
			if err != nil {
				return nil, err
			}
			return &Outcome{Report: rep, Stats: rep.Sims, Render: rep.Render}, nil
		},
	}, nil
}
