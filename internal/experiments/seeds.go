package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// MaxSeeds bounds a seed sweep's replication count. Each seed costs a
// full campaign simulation plus one fit per (machine, suite) cell, and
// the t-based confidence intervals gain little past a few dozen
// replications, so an accidental "count": 1000000 is rejected eagerly.
const MaxSeeds = 64

// SeedsSpec is the declarative form of a seed-sweep campaign: the JSON
// schema of seeds files, POST /v1/seeds bodies and seeds job payloads.
// The subject grid is either a single base machine × suite (the common
// case) or a whole campaign; the replications are either an explicit
// seed list or a count N standing for seeds 1..N. Exactly one of each
// pair must be set.
//
// A campaign used here must not carry its own fit options (ops,
// fitStarts, seed): the sweep owns the seed axis, and ops/fitStarts
// come from the executing engine's options — the same rule that keeps
// daemon and CLI answers bit-identical for every other kind.
type SeedsSpec struct {
	Base     *MachineSpec `json:"base,omitempty"`
	Suite    string       `json:"suite,omitempty"`
	Campaign *Campaign    `json:"campaign,omitempty"`
	Seeds    []uint64     `json:"seeds,omitempty"`
	Count    int          `json:"count,omitempty"`
}

// ParseSeedsSpec decodes a seeds document with the scenario-file rules:
// unknown fields and trailing data are errors.
func ParseSeedsSpec(data []byte) (SeedsSpec, error) {
	var spec SeedsSpec
	if err := DecodeStrict(bytes.NewReader(data), &spec); err != nil {
		return SeedsSpec{}, fmt.Errorf("experiments: parse seeds: %w", err)
	}
	return spec, nil
}

// LoadSeedsSpec reads and parses a seeds file.
func LoadSeedsSpec(path string) (SeedsSpec, error) { return loadFile(path, ParseSeedsSpec) }

// Seeds is a validated, fully resolved seed sweep: the subject machines
// materialized through the uarch registry, the suite names checked
// against the suite registry, and the replication list expanded and
// deduplicated.
type Seeds struct {
	Machines []*uarch.Machine
	Suites   []string
	SeedList []uint64

	// runsPerMachine is the per-seed workload count of one machine
	// (summed over the suites) — the job engine's run accounting.
	runsPerMachine int
}

// Resolve materializes the spec into a validated Seeds. Everything that
// can be rejected without simulating — unknown machines or suites,
// ambiguous subjects, empty or duplicated seed lists — is rejected
// here, so the serving layer and job engine fail fast.
func (spec SeedsSpec) Resolve() (*Seeds, error) {
	s := &Seeds{}

	switch {
	case spec.Campaign != nil:
		if spec.Base != nil || spec.Suite != "" {
			return nil, fmt.Errorf("experiments: seeds take a base+suite or a campaign, not both")
		}
		c := spec.Campaign
		if c.NumOps != 0 || c.FitStarts != 0 || c.Seed != 0 {
			return nil, fmt.Errorf("experiments: a seeds campaign must not set ops, fitStarts or seed (the sweep owns the seed axis; ops and fitStarts come from the engine options)")
		}
		if len(c.Machines) == 0 {
			return nil, fmt.Errorf("experiments: seeds campaign has no machines")
		}
		if len(c.Suites) == 0 {
			return nil, fmt.Errorf("experiments: seeds campaign has no suites")
		}
		machines, err := c.resolveMachines()
		if err != nil {
			return nil, err
		}
		s.Machines = machines
		seen := map[string]bool{}
		for _, name := range c.Suites {
			if seen[name] {
				return nil, fmt.Errorf("experiments: seeds campaign lists suite %q twice", name)
			}
			seen[name] = true
			s.Suites = append(s.Suites, name)
		}
	case spec.Base != nil:
		if spec.Suite == "" {
			return nil, fmt.Errorf("experiments: seeds with a base need a suite")
		}
		m, err := spec.Base.Resolve()
		if err != nil {
			return nil, err
		}
		s.Machines = []*uarch.Machine{m}
		s.Suites = []string{spec.Suite}
	default:
		return nil, fmt.Errorf("experiments: seeds need a base+suite or a campaign")
	}

	// Suite names are validated through the registry here (yielding the
	// ErrUnknownSuite sentinel the serving layer classifies), and the
	// per-seed workload count is recorded for run accounting. The
	// workload roster depends only on the suite name, never on ops or
	// seed base, so the default instantiation is the cheap one to ask.
	for _, name := range s.Suites {
		// Seed sweeps redraw every workload from a shifted seed base,
		// which a recorded trace file cannot do — reject file-backed
		// suites here, before any cell runs, rather than failing on the
		// first non-canonical seed mid-campaign.
		if suites.IsFileBacked(name) {
			return nil, fmt.Errorf("experiments: suite %q is file-backed: recorded traces cannot be re-seeded for a seed sweep", name)
		}
		suite, err := suites.ByName(name, suites.Options{})
		if err != nil {
			return nil, err
		}
		s.runsPerMachine += len(suite.Workloads)
	}

	// The limit is checked before a count expands into a list, so a huge
	// count is rejected instead of allocated.
	switch n := max(len(spec.Seeds), spec.Count); {
	case len(spec.Seeds) > 0 && spec.Count != 0:
		return nil, fmt.Errorf("experiments: seeds take a seed list or a count, not both")
	case n > MaxSeeds:
		return nil, fmt.Errorf("experiments: %d seeds exceed the limit of %d", n, MaxSeeds)
	case len(spec.Seeds) > 0:
		seen := map[uint64]bool{}
		for _, seed := range spec.Seeds {
			if seed == 0 {
				return nil, fmt.Errorf("experiments: seed 0 is reserved (seeds start at 1; seed 1 is the canonical single-seed campaign)")
			}
			if seen[seed] {
				return nil, fmt.Errorf("experiments: seed %d listed twice", seed)
			}
			seen[seed] = true
		}
		s.SeedList = append([]uint64(nil), spec.Seeds...)
	case spec.Count > 0:
		s.SeedList = make([]uint64, spec.Count)
		for i := range s.SeedList {
			s.SeedList[i] = uint64(i + 1)
		}
	case spec.Count < 0:
		return nil, fmt.Errorf("experiments: seeds count must be positive, got %d", spec.Count)
	default:
		return nil, fmt.Errorf("experiments: seeds need a seed list or a count")
	}
	return s, nil
}

// TotalRuns is the simulation-run count a full execution dispatches or
// serves from the store: every seed runs every workload of every suite
// on every machine.
func (s *Seeds) TotalRuns() int {
	return len(s.SeedList) * len(s.Machines) * s.runsPerMachine
}

// seedOptions maps one campaign seed onto the two seed knobs of an
// execution: the fit-restart seed and the workload-generator base.
// Seed s uses SeedBase s-1, so seed 1 (Seed=1, SeedBase=0) is exactly
// the canonical single-seed campaign — a sweep over {1} reproduces
// every existing result bit-identically, and its runs come straight
// from a warm store.
func seedOptions(opts Options, seed uint64) Options {
	opts.Seed = seed
	opts.SeedBase = seed - 1
	return opts
}

// SeedMetric is the across-seed distribution of one scalar: the
// per-seed values (in SeedList order) and their sample statistics. The
// interval is Student-t at 95% over the sample (Bessel-corrected)
// standard deviation; with a single seed no interval exists and the
// bounds collapse to the mean (stats.CI95), keeping every field finite
// for JSON.
type SeedMetric struct {
	PerSeed   []float64 `json:"perSeed"`
	Mean      float64   `json:"mean"`
	SampleStd float64   `json:"sampleStd"`
	CI95Lo    float64   `json:"ci95Lo"`
	CI95Hi    float64   `json:"ci95Hi"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
}

func seedMetric(xs []float64) SeedMetric {
	lo, hi, _ := stats.CI95(xs)
	return SeedMetric{
		PerSeed:   xs,
		Mean:      stats.Mean(xs),
		SampleStd: stats.SampleStdDev(xs),
		CI95Lo:    lo,
		CI95Hi:    hi,
		Min:       stats.Min(xs),
		Max:       stats.Max(xs),
	}
}

// CoeffStability is the across-seed stability of one fitted regression
// parameter. CV is the coefficient of variation SampleStd/|Mean| — the
// scale-free answer to "does this coefficient mean anything, or is the
// fit chasing the workload draw?" — defined 0 when the mean is 0.
type CoeffStability struct {
	Name      string  `json:"name"`
	Mean      float64 `json:"mean"`
	SampleStd float64 `json:"sampleStd"`
	CV        float64 `json:"cv"`
}

func coeffStability(name string, xs []float64) CoeffStability {
	m := stats.Mean(xs)
	sd := stats.SampleStdDev(xs)
	cv := 0.0
	if m != 0 {
		cv = sd / math.Abs(m)
	}
	return CoeffStability{Name: name, Mean: m, SampleStd: sd, CV: cv}
}

// SeedsCell is one (machine, suite) cell of a seeds report: the
// across-seed distributions of the suite-mean measured CPI and of the
// model's mean absolute relative error, plus the fit-stability of every
// mechanistic-empirical coefficient. MaxCoeffCV is the worst CV over
// the coefficients — the single number to watch for a fit whose
// parameters are not seed-stable.
type SeedsCell struct {
	Machine    string           `json:"machine"`
	Suite      string           `json:"suite"`
	CPI        SeedMetric       `json:"cpi"`
	MARE       SeedMetric       `json:"mare"`
	Coeffs     []CoeffStability `json:"coeffs"`
	MaxCoeffCV float64          `json:"maxCoeffCV"`
}

// SeedsReport is an executed seed sweep, in the one JSON shape shared
// by POST /v1/seeds responses, seeds job results and cmd/sweep -seeds
// -json output. Cells appear machine-major in campaign order (every
// suite of the first machine, then the second), with per-seed values
// in Seeds order.
type SeedsReport struct {
	Seeds     []uint64    `json:"seeds"`
	Ops       int         `json:"ops"`
	FitStarts int         `json:"fitStarts"`
	Machines  []string    `json:"machines"`
	Suites    []string    `json:"suites"`
	Cells     []SeedsCell `json:"cells"`
	Sims      SimStats    `json:"sims"`
}

// Render returns the seeds report as text: one line per (machine,
// suite) cell with mean ± CI for CPI and model error, then the
// least-stable coefficients.
func (r *SeedsReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seeds: %d replications %v (%d µops/workload, %d fit starts)\n",
		len(r.Seeds), r.Seeds, r.Ops, r.FitStarts)
	fmt.Fprintf(&b, "  %-12s %-8s %9s %19s %9s %17s %8s\n",
		"machine", "suite", "mean-CPI", "95% CI", "MARE", "95% CI", "max-CV")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-12s %-8s %9.4f [%8.4f,%8.4f] %8.2f%% [%6.2f%%,%6.2f%%] %7.3f\n",
			c.Machine, c.Suite,
			c.CPI.Mean, c.CPI.CI95Lo, c.CPI.CI95Hi,
			100*c.MARE.Mean, 100*c.MARE.CI95Lo, 100*c.MARE.CI95Hi,
			c.MaxCoeffCV)
	}
	b.WriteString("\ncoefficient stability (CV = sample-std/|mean| across seeds):\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %s/%s:", c.Machine, c.Suite)
		for _, co := range c.Coeffs {
			fmt.Fprintf(&b, " %s=%.3f", co.Name, co.CV)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// seedsReport aggregates the per-seed scores — perSeed[i] is scoreLab's
// result for the i-th seed's lab, so every seed lists the same cells in
// the same order — into the report's across-seed cells. A cell's CPI
// is the suite-mean measured CPI over Score's workload order, its MARE
// the model's mean absolute relative error: the same numbers every
// other reporting surface derives, so a sweep over seed {1} is
// bit-identical to them.
func seedsReport(s *Seeds, opts Options, perSeed [][]CampaignModelResult, st SimStats) *SeedsReport {
	rep := &SeedsReport{
		Seeds:     s.SeedList,
		Ops:       opts.NumOps,
		FitStarts: opts.FitStarts,
		Suites:    s.Suites,
		Sims:      st,
	}
	for _, m := range s.Machines {
		rep.Machines = append(rep.Machines, m.Name)
	}
	names := core.ParamNames()
	for ci, first := range perSeed[0] {
		cpis := make([]float64, len(perSeed))
		mares := make([]float64, len(perSeed))
		coeffs := make([][]float64, len(names)) // per parameter, per seed
		for i, scores := range perSeed {
			mr := scores[ci]
			ws := make([]float64, len(mr.Workloads))
			for wi, w := range mr.Workloads {
				ws[wi] = w.MeasuredCPI
			}
			cpis[i] = stats.Mean(ws)
			mares[i] = mr.AvgRelErr
			for pi, v := range mr.Params.Slice() {
				coeffs[pi] = append(coeffs[pi], v)
			}
		}
		cell := SeedsCell{
			Machine: first.Machine,
			Suite:   first.Suite,
			CPI:     seedMetric(cpis),
			MARE:    seedMetric(mares),
		}
		for pi, name := range names {
			co := coeffStability(name, coeffs[pi])
			cell.Coeffs = append(cell.Coeffs, co)
			if co.CV > cell.MaxCoeffCV {
				cell.MaxCoeffCV = co.CV
			}
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep
}

// RunSeeds executes the seed sweep, simulating and fitting every
// (machine, suite, seed) cell through opts.Store when configured.
// Cancelling ctx stops the dispatch of new simulations (in-flight ones
// finish and land in the store, so a rerun resumes warm) and skips the
// remaining fits, returning ctx.Err(). onSeed, when non-nil, is called
// each time another seed has been fully evaluated, with the cumulative
// seed count.
//
// Each seed has its own lab, carrying the seed's fit options, but every
// seed's pending runs join a single runSimJobs batch (each job recording
// into its own seed's lab), so replications share the worker pool and
// the materializer pipeline. The fits then run seed by seed through
// scoreLab, each spreading its multi-starts across the cores. Run
// results are keyed by (machine, spec, seed base) independent of
// scheduling, so the report is per-float identical to simulating each
// seed's lab on its own.
func RunSeeds(ctx context.Context, s *Seeds, opts Options, onSeed func(done int)) (*SeedsReport, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	labs := make([]*Lab, len(s.SeedList))
	var jobs []simJob
	for i, seed := range s.SeedList {
		sopts := seedOptions(opts, seed)
		suiteList := make([]suites.Suite, 0, len(s.Suites))
		for _, name := range s.Suites {
			suite, err := suites.ByName(name, suites.Options{NumOps: sopts.NumOps, SeedBase: sopts.SeedBase})
			if err != nil {
				return nil, err
			}
			suiteList = append(suiteList, suite)
		}
		lab, err := NewCustomLab(s.Machines, suiteList, sopts)
		if err != nil {
			return nil, err
		}
		labs[i] = lab
		jobs = append(jobs, lab.pendingJobs()...)
	}
	st, err := runSimJobs(ctx, jobs, opts)
	if err != nil {
		return nil, err
	}

	perSeed := make([][]CampaignModelResult, len(labs))
	for i, lab := range labs {
		if perSeed[i], err = scoreLab(ctx, lab); err != nil {
			return nil, err
		}
		if onSeed != nil {
			onSeed(i + 1)
		}
	}
	return seedsReport(s, opts, perSeed, st), nil
}
