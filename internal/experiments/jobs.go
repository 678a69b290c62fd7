package experiments

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Job kinds, registered in Kinds: a declarative campaign (machines ×
// suites, the cmd/experiments grid), a one-axis sensitivity sweep, a
// multi-axis exploration plan (the crossed grid of derived machines), a
// design-space optimization (a searched grid), or a seed-sweep campaign
// (a replication sweep).
const (
	JobKindCampaign = "campaign"
	JobKindSweep    = "sweep"
	JobKindPlan     = "plan"
	JobKindOptimize = "optimize"
	JobKindSeeds    = "seeds"
)

// JobState is a job's lifecycle position. Jobs move
// queued → running → one of the terminal states (done, failed,
// cancelled); a queued job cancelled before a worker picks it up goes
// straight to cancelled.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobSpec is the submitted description of an asynchronous job: the kind
// plus exactly one matching payload, named after the kind. It is the
// JSON schema of the POST /v1/jobs body.
//
// A campaign job's explicit fit options (ops, fitStarts, seed) win over
// the engine's defaults — a job is fully declarative, unlike
// NewCampaignLab where the caller's explicit options model CLI flags —
// and unset fields inherit the engine's. Every other kind always uses
// the engine's options, as cmd/sweep's flags do.
type JobSpec struct {
	Kind     string        `json:"kind"`
	Campaign *Campaign     `json:"campaign,omitempty"`
	Sweep    *SweepSpec    `json:"sweep,omitempty"`
	Plan     *PlanSpec     `json:"plan,omitempty"`
	Optimize *OptimizeSpec `json:"optimize,omitempty"`
	Seeds    *SeedsSpec    `json:"seeds,omitempty"`
}

// JobProgress counts a job's simulation runs. Counters only ever
// increase; DoneRuns == StoreHits + Simulated, and a finished
// campaign/sweep/plan job that ran to completion has
// DoneRuns == TotalRuns. For an optimize job TotalRuns is the search's
// upper bound (exhaustive enumeration plus any reduced-fidelity
// screens): finishing with DoneRuns well below it is the searched-grid
// saving, and the probe counters — full-fidelity cells evaluated, out
// of the search's probe bound — are the meaningful completion gauge.
// Plan jobs additionally report grid-cell completion: a cell is done
// once every workload of its derived machine has a run (the base fit
// point counts as a cell too). Seeds jobs report replication
// completion: a seed is done once every (machine, suite) cell of that
// replication is simulated and fitted. Cell, probe and seed counters
// stay zero for the kinds they don't apply to; a sweep counts runs only.
type JobProgress struct {
	TotalRuns   int `json:"totalRuns"`
	DoneRuns    int `json:"doneRuns"`
	StoreHits   int `json:"storeHits"`
	Simulated   int `json:"simulated"`
	TotalCells  int `json:"totalCells,omitempty"`
	DoneCells   int `json:"doneCells,omitempty"`
	TotalProbes int `json:"totalProbes,omitempty"`
	DoneProbes  int `json:"doneProbes,omitempty"`
	TotalSeeds  int `json:"totalSeeds,omitempty"`
	DoneSeeds   int `json:"doneSeeds,omitempty"`
}

// step records the cumulative count of the kind's completion unit:
// cells, probes or seeds, whichever the kind totals.
func (p *JobProgress) step(done int) {
	switch {
	case p.TotalCells > 0:
		p.DoneCells = done
	case p.TotalProbes > 0:
		p.DoneProbes = done
	case p.TotalSeeds > 0:
		p.DoneSeeds = done
	}
}

// JobStatus is an immutable snapshot of one job: what the GET /v1/jobs
// endpoints serve and what terminal-state artifacts persist. Result is
// set only in state done: the wire report of the job's kind.
type JobStatus struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	State     JobState        `json:"state"`
	Spec      JobSpec         `json:"spec"`
	Progress  JobProgress     `json:"progress"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// WorkloadCPI is one workload's measured vs model-predicted CPI. RelErr
// is signed (negative = the model under-predicts), the convention every
// relErr field on the wire follows; the accuracy aggregates are
// magnitudes.
type WorkloadCPI struct {
	Workload     string  `json:"workload"`
	MeasuredCPI  float64 `json:"measuredCPI"`
	PredictedCPI float64 `json:"predictedCPI"`
	RelErr       float64 `json:"relErr"`
}

// SuiteAccuracy summarizes suite-wide model error, the paper's accuracy
// judgement (Fig. 2): mean and max error magnitude, and the share of
// workloads below 20%.
type SuiteAccuracy struct {
	AvgRelErr      float64 `json:"avgRelErr"`
	MaxRelErr      float64 `json:"maxRelErr"`
	FracBelow20Pct float64 `json:"fracBelow20pct"`
}

// Score predicts every observation with model and judges the suite: the
// one scorer of every figure, kind, endpoint and command. The aggregates
// reduce the stats.RelErr magnitudes in observation order, so identical
// inputs score bit-identically on every surface.
func Score(model *core.Model, obs []core.Observation) ([]WorkloadCPI, SuiteAccuracy) {
	ws := make([]WorkloadCPI, len(obs))
	errs := make([]float64, len(obs))
	for i := range obs {
		o := &obs[i]
		pred := model.PredictCPI(o.Feat)
		ws[i] = WorkloadCPI{Workload: o.Name, MeasuredCPI: o.MeasuredCPI, PredictedCPI: pred,
			RelErr: (pred - o.MeasuredCPI) / o.MeasuredCPI}
		errs[i] = stats.RelErr(pred, o.MeasuredCPI)
	}
	return ws, SuiteAccuracy{AvgRelErr: stats.Mean(errs), MaxRelErr: stats.Max(errs),
		FracBelow20Pct: stats.FractionBelow(errs, 0.20)}
}

// CampaignModelResult is one fitted (machine, suite) cell of a campaign
// job: the fitted parameters, every workload's prediction, and the
// suite-wide accuracy.
type CampaignModelResult struct {
	Machine    string        `json:"machine"`
	ConfigHash string        `json:"configHash"`
	Suite      string        `json:"suite"`
	Params     core.Params   `json:"params"`
	Workloads  []WorkloadCPI `json:"workloads"`
	SuiteAccuracy
}

// CampaignJobResult is a campaign job's terminal result: one fitted
// model per machine × suite, in campaign order. The numbers are
// bit-identical to what the equivalent blocking cmd/experiments run
// computes — both paths share Lab.Simulate, Lab.Observations and
// Lab.Model.
type CampaignJobResult struct {
	Ops       int                   `json:"ops"`
	FitStarts int                   `json:"fitStarts"`
	Seed      uint64                `json:"seed"`
	Models    []CampaignModelResult `json:"models"`
}

// StackCPI is one CPI-stack component, in stack order (base first).
type StackCPI struct {
	Component string  `json:"component"`
	CPI       float64 `json:"cpi"`
}

// StackCPIs flattens a stack into its wire form.
func StackCPIs(st sim.Stack) []StackCPI {
	out := make([]StackCPI, 0, sim.NumComponents)
	for _, c := range sim.Components() {
		out = append(out, StackCPI{Component: c.String(), CPI: st.Cycles[c]})
	}
	return out
}

// Backpressure sentinels: Submit failures that are about the engine's
// state, not the spec. Callers (the HTTP layer) match with errors.Is to
// answer 503-retry-later instead of 400 — never by error text, which a
// submitted machine or suite name could collide with.
var (
	// ErrJobQueueFull reports a backlog at its QueueDepth bound.
	ErrJobQueueFull = errors.New("experiments: job queue full")
	// ErrJobsDraining reports an engine that is shutting down.
	ErrJobsDraining = errors.New("experiments: job engine is draining, not accepting jobs")
)

// JobCounts are the engine's lifecycle gauges, as served by /v1/stats.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// JobsConfig tunes the Jobs engine.
type JobsConfig struct {
	// Workers is the number of jobs executed concurrently (default 1:
	// each job already parallelizes its simulations across
	// Options.Workers CPU workers, so more job workers oversubscribe).
	Workers int
	// QueueDepth bounds the backlog of unstarted jobs (default 64);
	// Submit fails once it is full.
	QueueDepth int
	// ArtifactDir, when non-empty, is where terminal job states are
	// persisted as <id>.json files (conventionally next to the run
	// store). Empty keeps jobs in memory only.
	ArtifactDir string
	// RetainTerminal bounds how many terminal jobs stay queryable in
	// memory (default 256): a long-running daemon must not grow with
	// every campaign it ever ran. Beyond the bound the oldest terminal
	// jobs are evicted from the API; their artifacts, when configured,
	// remain on disk.
	RetainTerminal int
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetainTerminal <= 0 {
		c.RetainTerminal = 256
	}
	return c
}

// Jobs executes experiments of every registered kind asynchronously:
// Submit validates through ResolveJob and enqueues, a bounded worker
// pool executes through Experiment.Run — the one path the blocking
// CLIs and the synchronous endpoints use, so batch and daemon answers
// stay bit-identical and the run store is shared — per-job progress counters are fed from the
// store-hit/simulated callbacks and the kind's completion unit, Cancel
// stops a job mid-flight via context cancellation, and terminal states
// are persisted as JSON artifacts. Safe for concurrent use.
type Jobs struct {
	opts Options
	cfg  JobsConfig

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	closed bool

	queue chan *job
	wg    sync.WaitGroup
}

// job is the engine's mutable record; all fields past the immutable
// header are guarded by Jobs.mu.
type job struct {
	id        string
	spec      JobSpec
	exp       *Experiment // resolved at submission, so the worker never re-derives it
	submitted time.Time
	ctx       context.Context
	cancel    context.CancelFunc

	state    JobState
	progress JobProgress
	err      error
	result   json.RawMessage
	started  time.Time
	finished time.Time
}

// NewJobs builds a job engine executing with the given simulation
// options (defaults applied as in Lab; Store shared with whatever else
// uses it) and starts its workers. Callers must Drain it on shutdown.
func NewJobs(opts Options, cfg JobsConfig) *Jobs {
	cfg = cfg.withDefaults()
	j := &Jobs{
		opts:  opts.withDefaults(),
		cfg:   cfg,
		jobs:  map[string]*job{},
		queue: make(chan *job, cfg.QueueDepth),
	}
	for i := 0; i < j.cfg.Workers; i++ {
		j.wg.Add(1)
		go j.worker()
	}
	return j
}

// newJobID returns a fresh random job identifier. Randomness (rather
// than a counter) keeps artifacts from distinct daemon runs in one
// directory from colliding.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("experiments: job id entropy: %v", err))
	}
	return "job-" + hex.EncodeToString(b[:])
}

// campaignJobLab builds the lab a campaign job executes in. The
// campaign's explicit fit options take precedence over the engine's (see
// JobSpec); zeroing the engine fields makes NewCampaignLab inherit the
// campaign's values.
func campaignJobLab(c Campaign, opts Options) (*Lab, error) {
	if c.NumOps > 0 {
		opts.NumOps = 0
	}
	if c.FitStarts > 0 {
		opts.FitStarts = 0
	}
	if c.Seed > 0 {
		opts.Seed = 0
	}
	return NewCampaignLab(c, opts)
}

// Submit validates spec, enqueues it, and returns the queued snapshot.
// It fails fast — without enqueuing — on an invalid spec, a full queue,
// or an engine that is draining.
func (j *Jobs) Submit(spec JobSpec) (JobStatus, error) {
	exp, err := ResolveJob(spec, j.opts)
	if err != nil {
		return JobStatus{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	jb := &job{
		id:        newJobID(),
		spec:      spec,
		exp:       exp,
		submitted: time.Now().UTC(),
		ctx:       ctx,
		cancel:    cancel,
		state:     JobQueued,
		progress:  exp.Totals,
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		cancel()
		return JobStatus{}, ErrJobsDraining
	}
	select {
	case j.queue <- jb:
	default:
		j.mu.Unlock()
		cancel()
		return JobStatus{}, fmt.Errorf("%w (%d pending)", ErrJobQueueFull, j.cfg.QueueDepth)
	}
	j.jobs[jb.id] = jb
	j.order = append(j.order, jb.id)
	st := jb.snapshotLocked()
	j.mu.Unlock()
	return st, nil
}

// Get returns a snapshot of the identified job.
func (j *Jobs) Get(id string) (JobStatus, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jb, ok := j.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return jb.snapshotLocked(), true
}

// List returns snapshots of every job in submission order.
func (j *Jobs) List() []JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JobStatus, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.jobs[id].snapshotLocked())
	}
	return out
}

// Counts returns the lifecycle gauges.
func (j *Jobs) Counts() JobCounts {
	j.mu.Lock()
	defer j.mu.Unlock()
	var c JobCounts
	for _, jb := range j.jobs {
		switch jb.state {
		case JobQueued:
			c.Queued++
		case JobRunning:
			c.Running++
		case JobDone:
			c.Done++
		case JobFailed:
			c.Failed++
		case JobCancelled:
			c.Cancelled++
		}
	}
	return c
}

// Cancel cancels the identified job and returns its snapshot. A queued
// job goes terminal immediately; a running job stops dispatching new
// simulations and goes terminal once its worker observes the
// cancellation (poll Get for the transition). Cancelling a job that is
// already terminal is a no-op returning its current state.
func (j *Jobs) Cancel(id string) (JobStatus, bool) {
	j.mu.Lock()
	jb, ok := j.jobs[id]
	if !ok {
		j.mu.Unlock()
		return JobStatus{}, false
	}
	jb.cancel()
	if jb.state == JobQueued {
		j.finishLocked(jb, JobCancelled, nil, nil)
	}
	st := jb.snapshotLocked()
	j.mu.Unlock()
	return st, true
}

// Drain stops accepting new jobs and waits for the queued and running
// ones to finish. When ctx expires first, every remaining job is
// cancelled and Drain waits for the workers to observe that (bounded:
// cancellation stops new simulation dispatch, so a worker returns after
// at most its in-flight simulations). Safe to call more than once.
func (j *Jobs) Drain(ctx context.Context) {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.queue)
	}
	j.mu.Unlock()

	done := make(chan struct{})
	go func() {
		j.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		j.cancelAll()
		<-done
	}
}

// cancelAll cancels every non-terminal job.
func (j *Jobs) cancelAll() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, jb := range j.jobs {
		if jb.state.Terminal() {
			continue
		}
		jb.cancel()
		if jb.state == JobQueued {
			j.finishLocked(jb, JobCancelled, nil, nil)
		}
	}
}

func (j *Jobs) worker() {
	defer j.wg.Done()
	for jb := range j.queue {
		j.run(jb)
	}
}

func (j *Jobs) run(jb *job) {
	j.mu.Lock()
	if jb.state != JobQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	jb.state = JobRunning
	jb.started = time.Now().UTC()
	j.mu.Unlock()

	// The job's progress counters hook into the shared runSimJobs path
	// and the kind's completion unit.
	opts := j.opts
	opts.Progress = func(run RunKey, hit bool) {
		j.mu.Lock()
		jb.progress.DoneRuns++
		if hit {
			jb.progress.StoreHits++
		} else {
			jb.progress.Simulated++
		}
		j.mu.Unlock()
	}
	out, err := jb.exp.Run(jb.ctx, opts, func(done int) {
		j.mu.Lock()
		jb.progress.step(done)
		j.mu.Unlock()
	})
	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(out.Report)
	}

	j.mu.Lock()
	switch {
	case err == nil:
		// A completed job stays done even if a cancel raced the last
		// simulation: the work exists, hiding it helps nobody.
		j.finishLocked(jb, JobDone, raw, nil)
	case jb.ctx.Err() != nil:
		j.finishLocked(jb, JobCancelled, nil, nil)
	default:
		j.finishLocked(jb, JobFailed, nil, err)
	}
	j.mu.Unlock()
}

// runCampaign is the campaign kind's Run: it executes a campaign
// exactly as cmd/experiments does — NewCampaignLab, Simulate, Model per
// (machine, suite) — and condenses the fits into the job result.
func runCampaign(ctx context.Context, c Campaign, opts Options) (*Outcome, error) {
	lab, err := campaignJobLab(c, opts)
	if err != nil {
		return nil, err
	}
	if err := lab.SimulateContext(ctx); err != nil {
		return nil, err
	}
	models, err := scoreLab(ctx, lab)
	if err != nil {
		return nil, err
	}
	out := &CampaignJobResult{
		Ops:       lab.opts.NumOps,
		FitStarts: lab.opts.FitStarts,
		Seed:      lab.opts.Seed,
		Models:    models,
	}
	return &Outcome{Report: out, Stats: lab.SimStats()}, nil
}

// scoreLab fits and scores every (machine, suite) cell of a simulated
// lab, machine-major in campaign order — the scoring loop of campaign
// jobs and of every seed of a seeds run. Fits are not individually
// cancellable, but a cancelled ctx stops the loop between them.
func scoreLab(ctx context.Context, lab *Lab) ([]CampaignModelResult, error) {
	var out []CampaignModelResult
	for _, m := range lab.Machines() {
		for _, suiteName := range lab.SuiteNames() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			model, err := lab.Model(m.Name, suiteName)
			if err != nil {
				return nil, err
			}
			obs, err := lab.Observations(m.Name, suiteName)
			if err != nil {
				return nil, err
			}
			mr := CampaignModelResult{
				Machine:    m.Name,
				ConfigHash: m.ConfigHash(),
				Suite:      suiteName,
				Params:     model.P,
			}
			mr.Workloads, mr.SuiteAccuracy = Score(model, obs)
			out = append(out, mr)
		}
	}
	return out, nil
}

// finishLocked moves jb to a terminal state and persists its artifact
// before the new state becomes observable (the caller holds j.mu, which
// every snapshot takes): a client that polls a job to completion can
// rely on the artifact already being on disk. The file is a few KB, so
// briefly holding the lock across the write is cheaper than the
// artifact-after-terminal race it removes.
func (j *Jobs) finishLocked(jb *job, state JobState, result json.RawMessage, err error) {
	jb.state = state
	jb.result = result
	jb.err = err
	jb.finished = time.Now().UTC()
	j.persist(jb.snapshotLocked())
	j.pruneLocked()
}

// pruneLocked evicts the oldest terminal jobs beyond the retention
// bound. Caller holds j.mu.
func (j *Jobs) pruneLocked() {
	terminal := 0
	for _, jb := range j.jobs {
		if jb.state.Terminal() {
			terminal++
		}
	}
	excess := terminal - j.cfg.RetainTerminal
	if excess <= 0 {
		return
	}
	kept := j.order[:0]
	for _, id := range j.order {
		if excess > 0 && j.jobs[id].state.Terminal() {
			delete(j.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	j.order = kept
}

// snapshotLocked builds the job's immutable status. Caller holds j.mu.
func (jb *job) snapshotLocked() JobStatus {
	st := JobStatus{
		ID:        jb.id,
		Kind:      jb.spec.Kind,
		State:     jb.state,
		Spec:      jb.spec,
		Progress:  jb.progress,
		Submitted: jb.submitted,
		Result:    jb.result,
	}
	if jb.err != nil {
		st.Error = jb.err.Error()
	}
	if !jb.started.IsZero() {
		t := jb.started
		st.Started = &t
	}
	if !jb.finished.IsZero() {
		t := jb.finished
		st.Finished = &t
	}
	return st
}

// persist writes a terminal snapshot as a JSON artifact under the
// configured directory through atomicfile.Write, as the run store
// writes its entries, so readers never observe a torn file.
// Persistence is best effort: an unwritable artifact directory must not
// fail the job whose result is still served from memory.
func (j *Jobs) persist(st JobStatus) {
	if j.cfg.ArtifactDir == "" || !st.State.Terminal() {
		return
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return
	}
	data = append(data, '\n')
	if err := os.MkdirAll(j.cfg.ArtifactDir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(j.cfg.ArtifactDir, st.ID+".json")
	atomicfile.Write(dst, "."+st.ID+".tmp-*", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
