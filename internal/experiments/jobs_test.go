package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runstore"
)

// waitJob polls until the job is terminal, asserting the progress
// counters only ever increase, and returns the terminal snapshot.
func waitJob(t *testing.T, jobs *Jobs, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var prev JobProgress
	for {
		st, ok := jobs.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.Progress.DoneRuns < prev.DoneRuns || st.Progress.StoreHits < prev.StoreHits ||
			st.Progress.Simulated < prev.Simulated {
			t.Fatalf("progress went backwards: %+v then %+v", prev, st.Progress)
		}
		prev = st.Progress
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v (progress %+v)", id, st.State, timeout, st.Progress)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func drainJobs(t *testing.T, jobs *Jobs) {
	t.Helper()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		jobs.Drain(ctx)
	})
}

func TestJobsSubmitValidation(t *testing.T) {
	jobs := NewJobs(Options{NumOps: 1000, FitStarts: 2}, JobsConfig{})
	drainJobs(t, jobs)
	small := &Campaign{Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000"}}
	cases := []struct {
		name    string
		spec    JobSpec
		wantErr string
	}{
		{"unknown kind", JobSpec{Kind: "fleet"}, "unknown job kind"},
		{"campaign without payload", JobSpec{Kind: JobKindCampaign}, "without a campaign payload"},
		{"campaign with sweep payload", JobSpec{Kind: JobKindCampaign, Campaign: small,
			Sweep: &SweepSpec{}}, "with a sweep payload"},
		{"sweep without payload", JobSpec{Kind: JobKindSweep}, "without a sweep payload"},
		{"unknown machine", JobSpec{Kind: JobKindCampaign, Campaign: &Campaign{
			Machines: []MachineSpec{{Name: "core9"}}, Suites: []string{"cpu2000"}}}, "unknown machine"},
		{"unknown suite", JobSpec{Kind: JobKindCampaign, Campaign: &Campaign{
			Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2017"}}}, "unknown suite"},
		{"unknown sweep param", JobSpec{Kind: JobKindSweep, Sweep: &SweepSpec{
			Base: MachineSpec{Name: "core2"}, Param: "cores", Values: []int{2}, Suite: "cpu2000"}},
			"unknown sweep parameter"},
		{"bad sweep values", JobSpec{Kind: JobKindSweep, Sweep: &SweepSpec{
			Base: MachineSpec{Name: "core2"}, Param: "rob", Values: nil, Suite: "cpu2000"}},
			"at least one value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := jobs.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Submit error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
	if got := len(jobs.List()); got != 0 {
		t.Errorf("invalid submissions left %d jobs registered", got)
	}
}

// TestResolveJobRejectsOversizedInputs: a seeds count far past MaxSeeds
// and campaign ops past the trace cap fail validation instead of
// exhausting memory.
func TestResolveJobRejectsOversizedInputs(t *testing.T) {
	for i, body := range oversizedJobs {
		var spec JobSpec
		if err := DecodeStrict(strings.NewReader(body), &spec); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if _, err := ResolveJob(spec, Options{NumOps: 1000}); err == nil ||
			!strings.Contains(err.Error(), "exceed") {
			t.Errorf("%s: ResolveJob error = %v, want a size limit", spec.Kind, err)
		}
	}
}

// TestJobsCampaignRunsAndPersists executes a small campaign job to done
// and checks the terminal artifact on disk.
func TestJobsCampaignRunsAndPersists(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	artDir := filepath.Join(t.TempDir(), "jobs")
	jobs := NewJobs(Options{NumOps: 2000, FitStarts: 2, Store: store},
		JobsConfig{ArtifactDir: artDir})
	drainJobs(t, jobs)

	spec := JobSpec{Kind: JobKindCampaign, Campaign: &Campaign{
		Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000"}}}
	st, err := jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || st.Kind != JobKindCampaign {
		t.Errorf("submitted snapshot = %+v, want queued campaign", st)
	}
	if st.Progress.TotalRuns != 48 {
		t.Errorf("TotalRuns = %d, want 48 (cpu2000 on one machine)", st.Progress.TotalRuns)
	}

	final := waitJob(t, jobs, st.ID, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Progress.DoneRuns != 48 || final.Progress.DoneRuns !=
		final.Progress.StoreHits+final.Progress.Simulated {
		t.Errorf("terminal progress inconsistent: %+v", final.Progress)
	}
	var res CampaignJobResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 || res.Models[0].Machine != "core2" || len(res.Models[0].Workloads) != 48 {
		t.Errorf("result shape wrong: %d models", len(res.Models))
	}

	// The terminal state is persisted as a JSON artifact that round-trips.
	data, err := os.ReadFile(filepath.Join(artDir, final.ID+".json"))
	if err != nil {
		t.Fatalf("terminal artifact missing: %v", err)
	}
	var persisted JobStatus
	if err := json.Unmarshal(data, &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.ID != final.ID || persisted.State != JobDone ||
		persisted.Progress != final.Progress {
		t.Errorf("persisted artifact diverges: %+v vs %+v", persisted, final)
	}

	// A rerun of the same campaign is warm through the shared store.
	st2, err := jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitJob(t, jobs, st2.ID, 60*time.Second)
	if final2.State != JobDone || final2.Progress.Simulated != 0 || final2.Progress.StoreHits != 48 {
		t.Errorf("warm rerun = %s with progress %+v, want done with 48 store hits", final2.State, final2.Progress)
	}
	// And its result is bit-identical to the cold one's.
	if string(final2.Result) != string(final.Result) {
		t.Error("warm rerun result differs from the cold run")
	}
}

func TestJobsSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	jobs := NewJobs(Options{NumOps: 2000, FitStarts: 2}, JobsConfig{})
	drainJobs(t, jobs)
	st, err := jobs.Submit(JobSpec{Kind: JobKindSweep, Sweep: &SweepSpec{
		Base: MachineSpec{Name: "core2"}, Param: "rob", Values: []int{48, 96}, Suite: "cpu2000"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.TotalRuns != 3*48 {
		t.Errorf("TotalRuns = %d, want 144 (base + 2 points)", st.Progress.TotalRuns)
	}
	final := waitJob(t, jobs, st.ID, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("sweep finished %s (error %q)", final.State, final.Error)
	}
	var res SweepReport
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Base != "core2" || res.Param != "rob" || len(res.Points) != 2 {
		t.Errorf("sweep result = %+v", res)
	}
	for _, p := range res.Points {
		if p.SimCPI <= 0 || p.ModelCPI <= 0 || len(p.SimStack) != 9 || len(p.ModelStack) != 9 {
			t.Errorf("degenerate sweep point %+v", p)
		}
	}
}

// TestJobsCancelMidFlight is the cancellation contract under the race
// detector: cancelling a mid-flight campaign job stops the dispatch of
// new simulations, reports a cancelled terminal state, and leaves the
// run store consistent for a follow-up warm run.
func TestJobsCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One simulation worker and a real µop count keep the campaign in
	// flight long enough to cancel deterministically mid-run.
	opts := Options{NumOps: 50000, FitStarts: 2, Workers: 1, Store: store}
	jobs := NewJobs(opts, JobsConfig{})
	drainJobs(t, jobs)

	campaign := Campaign{
		Machines: []MachineSpec{{Name: "core2"}, {Name: "corei7"}},
		Suites:   []string{"cpu2000"},
	}
	st, err := jobs.Submit(JobSpec{Kind: JobKindCampaign, Campaign: &campaign})
	if err != nil {
		t.Fatal(err)
	}
	total := st.Progress.TotalRuns
	if total != 96 {
		t.Fatalf("TotalRuns = %d, want 96", total)
	}

	// Wait until the job is demonstrably mid-flight, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := jobs.Get(st.ID)
		if !ok {
			t.Fatal("job disappeared")
		}
		if cur.State == JobRunning && cur.Progress.DoneRuns >= 2 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished %s before it could be cancelled; raise NumOps", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never got mid-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := jobs.Cancel(st.ID); !ok {
		t.Fatal("Cancel reported unknown job")
	}

	final := waitJob(t, jobs, st.ID, 30*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if final.Error != "" || len(final.Result) != 0 {
		t.Errorf("cancelled job carries error %q / result %d bytes", final.Error, len(final.Result))
	}
	if final.Progress.DoneRuns >= total {
		t.Errorf("cancelled job completed all %d runs; cancellation did nothing", total)
	}

	// No further simulations are dispatched after the terminal state.
	time.Sleep(100 * time.Millisecond)
	again, _ := jobs.Get(st.ID)
	if again.Progress != final.Progress {
		t.Errorf("progress moved after cancellation: %+v then %+v", final.Progress, again.Progress)
	}

	// Cancel is idempotent on a terminal job.
	st2, ok := jobs.Cancel(st.ID)
	if !ok || st2.State != JobCancelled {
		t.Errorf("re-cancel = %+v, %v", st2, ok)
	}

	// The store stayed consistent: a blocking follow-up campaign resumes
	// warm — every run the cancelled job persisted is a hit — and
	// completes the grid.
	lab, err := NewCampaignLab(campaign, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Simulate(); err != nil {
		t.Fatal(err)
	}
	sim := lab.SimStats()
	if sim.Hits+sim.Simulated != total {
		t.Errorf("follow-up run covered %d runs, want %d", sim.Hits+sim.Simulated, total)
	}
	if sim.Hits < final.Progress.Simulated {
		t.Errorf("follow-up hit %d runs, want at least the %d the cancelled job simulated",
			sim.Hits, final.Progress.Simulated)
	}
}

// TestJobsDrainCancelsStragglers proves Drain's deadline path: a job
// still running when the drain context expires is cancelled rather than
// awaited.
func TestJobsDrainCancelsStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign is slow")
	}
	jobs := NewJobs(Options{NumOps: 50000, FitStarts: 2, Workers: 1}, JobsConfig{})
	st, err := jobs.Submit(JobSpec{Kind: JobKindCampaign, Campaign: &Campaign{
		Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000", "cpu2006"}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	jobs.Drain(ctx)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("Drain took %v, want prompt cancellation", elapsed)
	}
	final, _ := jobs.Get(st.ID)
	if !final.State.Terminal() {
		t.Errorf("job still %s after Drain", final.State)
	}
	if _, err := jobs.Submit(JobSpec{Kind: JobKindCampaign, Campaign: &Campaign{
		Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000"}}}); !errors.Is(err, ErrJobsDraining) {
		t.Errorf("Submit after Drain = %v, want ErrJobsDraining", err)
	}
}

// TestJobsRetainTerminal proves the in-memory retention bound: with a
// single worker pinned on a long job, cancelled queued jobs go terminal
// immediately and the oldest terminal one is evicted from the API while
// the newest stays queryable.
func TestJobsRetainTerminal(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a running job")
	}
	jobs := NewJobs(Options{NumOps: 50000, FitStarts: 2, Workers: 1},
		JobsConfig{RetainTerminal: 1})
	drainJobs(t, jobs)
	spec := JobSpec{Kind: JobKindCampaign, Campaign: &Campaign{
		Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000"}}}
	running, err := jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick up the long job so the next two
	// submissions stay queued.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := jobs.Get(running.ID)
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	first, err := jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs.Cancel(first.ID)
	jobs.Cancel(second.ID) // 2 terminal > RetainTerminal=1: first evicted
	if _, ok := jobs.Get(first.ID); ok {
		t.Error("oldest terminal job should have been evicted")
	}
	if st, ok := jobs.Get(second.ID); !ok || st.State != JobCancelled {
		t.Errorf("newest terminal job = %+v, %v; want a queryable cancelled job", st, ok)
	}
	if st, ok := jobs.Get(running.ID); !ok || st.State.Terminal() {
		t.Errorf("running job = %+v, %v; must never be evicted", st, ok)
	}
	jobs.Cancel(running.ID)
}

// TestJobsQueueBounded proves the backlog bound: with a single worker
// busy, QueueDepth+? submissions beyond the bound are rejected without
// being registered.
func TestJobsQueueBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a running job")
	}
	jobs := NewJobs(Options{NumOps: 50000, FitStarts: 2, Workers: 1},
		JobsConfig{QueueDepth: 2})
	drainJobs(t, jobs)
	spec := JobSpec{Kind: JobKindCampaign, Campaign: &Campaign{
		Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000"}}}
	// The queue holds 2; the worker may have popped the first already, so
	// 4 submissions guarantee at least one rejection.
	var rejected int
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := jobs.Submit(spec)
		if err != nil {
			if !errors.Is(err, ErrJobQueueFull) {
				t.Fatalf("unexpected Submit error: %v", err)
			}
			rejected++
			continue
		}
		ids = append(ids, st.ID)
	}
	if rejected == 0 {
		t.Error("no submission was rejected by the bounded queue")
	}
	if got := len(jobs.List()); got != len(ids) {
		t.Errorf("listing has %d jobs, want the %d accepted", got, len(ids))
	}
	for _, id := range ids {
		jobs.Cancel(id)
	}
}

// TestJobsPlanRunsWithCellProgress executes a 2×2 grid plan job to done
// and checks the per-cell progress counters land exactly: every grid
// machine (base included) completes as a cell.
func TestJobsPlanRunsWithCellProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	sn := tinySuite(t)
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := NewJobs(Options{NumOps: 2000, FitStarts: 2, Store: store}, JobsConfig{})
	drainJobs(t, jobs)
	spec := JobSpec{Kind: JobKindPlan, Plan: &PlanSpec{
		Base: MachineSpec{Name: "core2"},
		Axes: []PlanAxis{
			{Param: "rob", Values: []int{48, 96}},
			{Param: "mshrs", Values: []int{4, 8}},
		},
		Suite: sn,
	}}
	st, err := jobs.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.TotalRuns != 5*12 {
		t.Errorf("TotalRuns = %d, want 60 (base + 4 cells × 12 workloads)", st.Progress.TotalRuns)
	}
	// Cell totals are part of the submission snapshot, not discovered
	// at run time.
	if st.Progress.TotalCells != 5 || st.Progress.DoneCells != 0 {
		t.Errorf("submitted cell progress %+v, want 5 total / 0 done", st.Progress)
	}
	final := waitJob(t, jobs, st.ID, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("plan job finished %s (error %q)", final.State, final.Error)
	}
	if final.Progress.TotalCells != 5 || final.Progress.DoneCells != 5 {
		t.Errorf("cell progress %+v, want 5/5", final.Progress)
	}
	if final.Progress.DoneRuns != 60 {
		t.Errorf("run progress %+v, want 60 done", final.Progress)
	}
	var res PlanReport
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Base != "core2" || len(res.Axes) != 2 || len(res.Cells) != 4 {
		t.Fatalf("plan result shape: %+v", res)
	}
	for _, c := range res.Cells {
		if len(c.Values) != 2 || c.SimCPI <= 0 || c.ModelCPI <= 0 ||
			len(c.SimStack) != 9 || len(c.ModelStack) != 9 {
			t.Errorf("degenerate plan cell %+v", c)
		}
	}

	// The job's cells are bit-identical to the blocking RunPlan on the
	// same (now warm) store.
	plan, err := spec.Plan.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := RunPlan(plan, Options{NumOps: 2000, FitStarts: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Stats.Simulated != 0 {
		t.Errorf("blocking rerun simulated %d runs; job left the store cold", blocking.Stats.Simulated)
	}
	for i, c := range res.Cells {
		pt := blocking.Points[i]
		if c.Machine != pt.Machine || c.SimCPI != pt.SimCPI || c.ModelCPI != pt.ModelCPI {
			t.Errorf("cell %d: job %+v vs blocking %+v", i, c, pt)
		}
	}

	// Duplicate axis values are rejected at submission, before anything
	// runs — the wire-path half of the duplicate-values fix.
	if _, err := jobs.Submit(JobSpec{Kind: JobKindPlan, Plan: &PlanSpec{
		Base:  MachineSpec{Name: "core2"},
		Axes:  []PlanAxis{{Param: "rob", Values: []int{64, 64}}},
		Suite: sn,
	}}); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate plan values = %v", err)
	}
}

// TestJobsPlanCancelMidFlight is the plan flavour of the cancellation
// contract under the race detector: cancelling a mid-flight grid job
// stops the dispatch of new simulations and leaves the run store
// warm-consistent — a follow-up blocking plan hits everything the
// cancelled job persisted and completes the grid.
func TestJobsPlanCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end grid is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One simulation worker and a real µop count keep the grid in
	// flight long enough to cancel deterministically mid-run.
	opts := Options{NumOps: 50000, FitStarts: 2, Workers: 1, Store: store}
	jobs := NewJobs(opts, JobsConfig{})
	drainJobs(t, jobs)

	planSpec := &PlanSpec{
		Base: MachineSpec{Name: "core2"},
		Axes: []PlanAxis{
			{Param: "rob", Values: []int{48, 96}},
			{Param: "memlat", Values: []int{150, 300}},
		},
		Suite: "cpu2000",
	}
	st, err := jobs.Submit(JobSpec{Kind: JobKindPlan, Plan: planSpec})
	if err != nil {
		t.Fatal(err)
	}
	total := st.Progress.TotalRuns
	if total != 5*48 {
		t.Fatalf("TotalRuns = %d, want 240", total)
	}

	// Wait until the job is demonstrably mid-flight, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := jobs.Get(st.ID)
		if !ok {
			t.Fatal("job disappeared")
		}
		if cur.State == JobRunning && cur.Progress.DoneRuns >= 2 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished %s before it could be cancelled; raise NumOps", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never got mid-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := jobs.Cancel(st.ID); !ok {
		t.Fatal("Cancel reported unknown job")
	}
	final := waitJob(t, jobs, st.ID, 30*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if final.Progress.DoneRuns >= total {
		t.Errorf("cancelled job completed all %d runs; cancellation did nothing", total)
	}
	if final.Progress.DoneCells >= final.Progress.TotalCells {
		t.Errorf("cancelled job completed all %d cells", final.Progress.TotalCells)
	}

	// The store stayed warm-consistent: the blocking follow-up hits
	// every run the cancelled job persisted and completes the grid.
	plan, err := planSpec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPlan(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hits+res.Stats.Simulated != total {
		t.Errorf("follow-up covered %d runs, want %d", res.Stats.Hits+res.Stats.Simulated, total)
	}
	if res.Stats.Hits < final.Progress.Simulated {
		t.Errorf("follow-up hit %d runs, want at least the %d the cancelled job simulated",
			res.Stats.Hits, final.Progress.Simulated)
	}
}

// TestJobsOptimizeRunsWithProbeProgress executes an optimize job to
// done: the submission snapshot reports the search's run upper bound
// and probe bound, the probe counter tracks full-fidelity evaluations,
// and the finished job proves the searched-grid saving by completing
// below its own TotalRuns bound, bit-identical to the blocking
// RunOptimize on the same store.
func TestJobsOptimizeRunsWithProbeProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	sn := tinySuite(t)
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := NewJobs(Options{NumOps: 2000, FitStarts: 2, Store: store}, JobsConfig{})
	drainJobs(t, jobs)
	optSpec := &OptimizeSpec{
		Base: MachineSpec{Name: "core2"},
		Axes: []PlanAxis{
			{Param: "width", Values: []int{2, 4, 8}},
			{Param: "memlat", Values: []int{150, 300}},
		},
		Suite:     sn,
		Objective: ObjectiveSpec{Kind: ObjectiveMinCPI},
		Search:    SearchSpec{TrustRadius: 99},
	}
	st, err := jobs.Submit(JobSpec{Kind: JobKindOptimize, Optimize: optSpec})
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.TotalRuns != (1+6)*12 {
		t.Errorf("TotalRuns = %d, want the 84-run exhaustive bound", st.Progress.TotalRuns)
	}
	if st.Progress.TotalProbes != 6 || st.Progress.DoneProbes != 0 {
		t.Errorf("submitted probe progress %+v, want 6 total / 0 done", st.Progress)
	}
	final := waitJob(t, jobs, st.ID, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("optimize job finished %s (error %q)", final.State, final.Error)
	}
	var rep OptimizeReport
	if err := json.Unmarshal(final.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Probes >= rep.GridCells {
		t.Errorf("job probed %d of %d cells; search saved nothing", rep.Probes, rep.GridCells)
	}
	if final.Progress.DoneProbes != rep.Probes {
		t.Errorf("probe counter %d, result reports %d", final.Progress.DoneProbes, rep.Probes)
	}
	// The run saving is the point: the finished job never touched the
	// cells the search skipped.
	if want := (1 + rep.Probes) * 12; final.Progress.DoneRuns != want {
		t.Errorf("DoneRuns = %d, want %d (base + %d probed cells × 12 workloads)",
			final.Progress.DoneRuns, want, rep.Probes)
	}
	if final.Progress.DoneRuns >= final.Progress.TotalRuns {
		t.Errorf("optimize job used its whole %d-run bound", final.Progress.TotalRuns)
	}
	if rep.Best == nil || rep.Best.SimCPI <= 0 || len(rep.Best.ModelStack) != 9 {
		t.Fatalf("degenerate best point: %+v", rep.Best)
	}

	// Bit-identical to the blocking path on the now-warm store.
	o, err := optSpec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := RunOptimize(context.Background(), o, Options{NumOps: 2000, FitStarts: 2, Store: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Sims.Simulated != 0 {
		t.Errorf("blocking rerun simulated %d runs; job left the store cold", blocking.Sims.Simulated)
	}
	if blocking.Best.Machine != rep.Best.Machine || blocking.Best.ModelCPI != rep.Best.ModelCPI {
		t.Errorf("job best %+v vs blocking %+v", rep.Best, blocking.Best)
	}

	// An invalid optimize submission fails at Submit.
	bad := *optSpec
	bad.Objective = ObjectiveSpec{Kind: "min-watts"}
	if _, err := jobs.Submit(JobSpec{Kind: JobKindOptimize, Optimize: &bad}); err == nil ||
		!strings.Contains(err.Error(), "unknown objective kind") {
		t.Errorf("bad objective at submission = %v", err)
	}
}

// TestJobsOptimizeCancelMidFlight is the optimize flavour of the
// cancellation contract under the race detector: cancelling a
// mid-flight search stops the dispatch of new simulations and leaves
// the run store warm-consistent — a follow-up blocking optimize hits
// everything the cancelled job persisted and finishes the search.
func TestJobsOptimizeCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end search is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One simulation worker and a real µop count keep the search in
	// flight long enough to cancel deterministically mid-run.
	opts := Options{NumOps: 50000, FitStarts: 2, Workers: 1, Store: store}
	jobs := NewJobs(opts, JobsConfig{})
	drainJobs(t, jobs)

	optSpec := &OptimizeSpec{
		Base: MachineSpec{Name: "core2"},
		Axes: []PlanAxis{
			{Param: "width", Values: []int{2, 4}},
			{Param: "memlat", Values: []int{150, 300}},
		},
		Suite:     "cpu2000",
		Objective: ObjectiveSpec{Kind: ObjectiveMinCPI},
		Search:    SearchSpec{TrustRadius: 99},
	}
	st, err := jobs.Submit(JobSpec{Kind: JobKindOptimize, Optimize: optSpec})
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.TotalRuns != 5*48 || st.Progress.TotalProbes != 4 {
		t.Fatalf("submission bounds %+v, want 240 runs / 4 probes", st.Progress)
	}

	// Wait until the job is demonstrably mid-flight, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := jobs.Get(st.ID)
		if !ok {
			t.Fatal("job disappeared")
		}
		if cur.State == JobRunning && cur.Progress.DoneRuns >= 2 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished %s before it could be cancelled; raise NumOps", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never got mid-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := jobs.Cancel(st.ID); !ok {
		t.Fatal("Cancel reported unknown job")
	}
	final := waitJob(t, jobs, st.ID, 30*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if final.Progress.DoneRuns >= final.Progress.TotalRuns {
		t.Errorf("cancelled job hit its whole %d-run bound", final.Progress.TotalRuns)
	}

	// The store stayed warm-consistent: the search is deterministic, so
	// the follow-up requests the same runs in the same order and hits
	// every one the cancelled job persisted.
	o, err := optSpec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOptimize(context.Background(), o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("follow-up search found no best point")
	}
	if res.Sims.Hits < final.Progress.Simulated {
		t.Errorf("follow-up hit %d runs, want at least the %d the cancelled job simulated",
			res.Sims.Hits, final.Progress.Simulated)
	}
}

// TestJobsSeedsRunsWithSeedProgress executes a seeds job to done: the
// submission snapshot reports the sweep's run total and seed count, the
// seed counter tracks fully evaluated replications, and the finished
// job's report is bit-identical to a blocking RunSeeds on the same
// (now-warm) store.
func TestJobsSeedsRunsWithSeedProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	sn := tinySuite(t)
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	jobs := NewJobs(opts, JobsConfig{})
	drainJobs(t, jobs)
	seedsSpec := &SeedsSpec{Base: &MachineSpec{Name: "core2"}, Suite: sn, Count: 2}

	st, err := jobs.Submit(JobSpec{Kind: JobKindSeeds, Seeds: seedsSpec})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || st.Kind != JobKindSeeds {
		t.Errorf("submitted snapshot = %+v, want queued seeds job", st)
	}
	if st.Progress.TotalRuns != 2*12 {
		t.Errorf("TotalRuns = %d, want 24 (2 seeds × 12 workloads)", st.Progress.TotalRuns)
	}
	if st.Progress.TotalSeeds != 2 || st.Progress.DoneSeeds != 0 {
		t.Errorf("submitted seed progress %+v, want 2 total / 0 done", st.Progress)
	}

	final := waitJob(t, jobs, st.ID, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("seeds job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Progress.DoneSeeds != 2 || final.Progress.DoneRuns != 24 {
		t.Errorf("final progress %+v, want 2 seeds / 24 runs done", final.Progress)
	}
	var rep SeedsReport
	if err := json.Unmarshal(final.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Seeds) != 2 || len(rep.Cells) != 1 || len(rep.Cells[0].CPI.PerSeed) != 2 {
		t.Fatalf("seeds report shape: %+v", rep)
	}

	// Bit-identical to the blocking path on the store the job warmed
	// (JSON float round-trips are exact, so the comparison is per-bit).
	s, err := seedsSpec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := RunSeeds(context.Background(), s, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blocking.Sims.Simulated != 0 || blocking.Sims.TraceGens != 0 {
		t.Errorf("blocking rerun stats %+v; job left the store cold", blocking.Sims)
	}
	if !reflect.DeepEqual(rep.Cells, blocking.Cells) {
		t.Error("job report diverged from the blocking sweep")
	}

	// An invalid seeds submission fails at Submit.
	bad := *seedsSpec
	bad.Count = 0
	bad.Seeds = []uint64{0}
	if _, err := jobs.Submit(JobSpec{Kind: JobKindSeeds, Seeds: &bad}); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Errorf("seed 0 at submission = %v", err)
	}
}

// TestJobsSeedsCancelMidFlight is the seeds flavour of the cancellation
// contract under the race detector: cancelling a mid-flight sweep stops
// the dispatch of new simulations and leaves the run store
// warm-consistent — a follow-up blocking sweep hits everything the
// cancelled job persisted and completes the replications.
func TestJobsSeedsCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One simulation worker and a real µop count keep the sweep in
	// flight long enough to cancel deterministically mid-run.
	opts := Options{NumOps: 50000, FitStarts: 2, Workers: 1, Store: store}
	jobs := NewJobs(opts, JobsConfig{})
	drainJobs(t, jobs)

	seedsSpec := &SeedsSpec{Base: &MachineSpec{Name: "core2"}, Suite: "cpu2000", Count: 3}
	st, err := jobs.Submit(JobSpec{Kind: JobKindSeeds, Seeds: seedsSpec})
	if err != nil {
		t.Fatal(err)
	}
	total := st.Progress.TotalRuns
	if total != 3*48 || st.Progress.TotalSeeds != 3 {
		t.Fatalf("submission bounds %+v, want 144 runs / 3 seeds", st.Progress)
	}

	// Wait until the job is demonstrably mid-flight, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := jobs.Get(st.ID)
		if !ok {
			t.Fatal("job disappeared")
		}
		if cur.State == JobRunning && cur.Progress.DoneRuns >= 2 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished %s before it could be cancelled; raise NumOps", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never got mid-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := jobs.Cancel(st.ID); !ok {
		t.Fatal("Cancel reported unknown job")
	}
	final := waitJob(t, jobs, st.ID, 30*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if final.Progress.DoneRuns >= total {
		t.Errorf("cancelled job completed all %d runs; cancellation did nothing", total)
	}
	if final.Progress.DoneSeeds >= final.Progress.TotalSeeds {
		t.Errorf("cancelled job completed all %d seeds", final.Progress.TotalSeeds)
	}

	// The store stayed warm-consistent: the blocking follow-up hits
	// every run the cancelled job persisted and completes the sweep.
	s, err := seedsSpec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSeeds(context.Background(), s, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims.Hits+res.Sims.Simulated != total {
		t.Errorf("follow-up covered %d runs, want %d", res.Sims.Hits+res.Sims.Simulated, total)
	}
	if res.Sims.Hits < final.Progress.Simulated {
		t.Errorf("follow-up hit %d runs, want at least the %d the cancelled job simulated",
			res.Sims.Hits, final.Progress.Simulated)
	}
}
