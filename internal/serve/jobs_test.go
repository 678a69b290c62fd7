package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func deleteJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// pollJob GETs the job until it is terminal, asserting every observed
// state is legal and the progress counters are monotone, and returns the
// terminal status.
func pollJob(t *testing.T, baseURL, id string, timeout time.Duration) experiments.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var prev experiments.JobProgress
	seenRunning := false
	for {
		var st experiments.JobStatus
		getJSON(t, baseURL+"/v1/jobs/"+id, &st)
		switch st.State {
		case experiments.JobQueued, experiments.JobRunning, experiments.JobDone,
			experiments.JobFailed, experiments.JobCancelled:
		default:
			t.Fatalf("illegal job state %q", st.State)
		}
		if seenRunning && st.State == experiments.JobQueued {
			t.Fatal("job went back from running to queued")
		}
		seenRunning = seenRunning || st.State == experiments.JobRunning
		if st.Progress.DoneRuns < prev.DoneRuns || st.Progress.StoreHits < prev.StoreHits ||
			st.Progress.Simulated < prev.Simulated {
			t.Fatalf("progress went backwards: %+v then %+v", prev, st.Progress)
		}
		if st.Progress.DoneRuns != st.Progress.StoreHits+st.Progress.Simulated {
			t.Fatalf("progress inconsistent: %+v", st.Progress)
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

// TestJobCampaignMatchesBlockingRun is the jobs e2e: a submitted
// campaign job progresses queued→running→done with monotone counters,
// and its result matches the equivalent blocking cmd/experiments
// computation per-float.
func TestJobCampaignMatchesBlockingRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind": "campaign", "campaign": {"machines": [{"name": "core2"}], "suites": ["cpu2000"]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	var sub experiments.JobStatus
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.State != experiments.JobQueued || sub.ID == "" {
		t.Fatalf("submitted job = %+v, want a queued job with an id", sub)
	}
	if sub.Progress.TotalRuns != 48 || sub.Progress.DoneRuns != 0 {
		t.Errorf("initial progress = %+v", sub.Progress)
	}

	final := pollJob(t, ts.URL, sub.ID, 60*time.Second)
	if final.State != experiments.JobDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Progress.DoneRuns != final.Progress.TotalRuns {
		t.Errorf("done job progress = %+v, want all runs done", final.Progress)
	}
	if final.Started == nil || final.Finished == nil {
		t.Error("terminal job missing started/finished timestamps")
	}
	var res experiments.CampaignJobResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}

	// The equivalent blocking run, exactly as cmd/experiments executes a
	// scenario: NewCampaignLab → Simulate → Model.
	campaign := experiments.Campaign{
		Machines: []experiments.MachineSpec{{Name: "core2"}},
		Suites:   []string{"cpu2000"},
	}
	lab, err := experiments.NewCampaignLab(campaign, experiments.Options{NumOps: testOps, FitStarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Simulate(); err != nil {
		t.Fatal(err)
	}
	model, err := lab.Model("core2", "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	obs, err := lab.Observations("core2", "cpu2000")
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Models) != 1 {
		t.Fatalf("job result has %d models, want 1", len(res.Models))
	}
	mr := res.Models[0]
	if mr.Params != model.P {
		t.Errorf("job params diverged from the blocking fit:\n  job      %+v\n  blocking %+v", mr.Params, model.P)
	}
	if len(mr.Workloads) != len(obs) {
		t.Fatalf("job predicted %d workloads, blocking run has %d", len(mr.Workloads), len(obs))
	}
	for i, wp := range mr.Workloads {
		o := obs[i]
		if wp.Workload != o.Name {
			t.Fatalf("workload order diverged at %d: %s vs %s", i, wp.Workload, o.Name)
		}
		if math.Float64bits(wp.MeasuredCPI) != math.Float64bits(o.MeasuredCPI) {
			t.Errorf("%s: measured CPI %v != blocking %v", o.Name, wp.MeasuredCPI, o.MeasuredCPI)
		}
		want := model.PredictCPI(o.Feat)
		if math.Float64bits(wp.PredictedCPI) != math.Float64bits(want) {
			t.Errorf("%s: predicted CPI %v != blocking %v (bit mismatch)", o.Name, wp.PredictedCPI, want)
		}
	}

	// The finished job shows up in the listing and the stats gauges.
	var listing JobListResponse
	getJSON(t, ts.URL+"/v1/jobs", &listing)
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != sub.ID {
		t.Errorf("listing = %+v, want exactly the submitted job", listing.Jobs)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Jobs == nil || st.Jobs.Done != 1 {
		t.Errorf("stats job gauges = %+v, want one done job", st.Jobs)
	}
	if st.Requests["jobSubmit"] != 1 || st.Requests["jobGet"] == 0 {
		t.Errorf("job request counters = %+v", st.Requests)
	}
}

// TestJobCancellationOverHTTP: DELETE on a running job yields a
// cancelled terminal state with zero further dispatched simulations.
func TestJobCancellationOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign is slow")
	}
	// A single simulation worker and a real µop count keep the campaign
	// mid-flight long enough to cancel it deterministically.
	ts, _, _ := newTestServerJobs(t,
		experiments.Options{NumOps: 50000, FitStarts: 2, Workers: 1},
		experiments.JobsConfig{})

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind": "campaign", "campaign": {"machines": [{"name": "core2"}, {"name": "corei7"}], "suites": ["cpu2000"]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	var sub experiments.JobStatus
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	total := sub.Progress.TotalRuns

	// Wait until demonstrably running, then cancel over the wire.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st experiments.JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State == experiments.JobRunning && st.Progress.DoneRuns >= 2 {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job finished %s before it could be cancelled", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never got mid-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, _ = deleteJSON(t, ts.URL+"/v1/jobs/"+sub.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}

	final := pollJob(t, ts.URL, sub.ID, 30*time.Second)
	if final.State != experiments.JobCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", final.State)
	}
	if final.Progress.DoneRuns >= total {
		t.Errorf("cancelled job still completed all %d runs", total)
	}
	if len(final.Result) != 0 {
		t.Error("cancelled job carries a result")
	}

	// Zero further dispatched simulations: the counters are frozen.
	time.Sleep(100 * time.Millisecond)
	var again experiments.JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &again)
	if again.Progress != final.Progress {
		t.Errorf("progress moved after cancellation: %+v then %+v", final.Progress, again.Progress)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Jobs == nil || st.Jobs.Cancelled != 1 {
		t.Errorf("stats job gauges = %+v, want one cancelled job", st.Jobs)
	}
}

func TestJobEndpointValidation(t *testing.T) {
	ts, _ := newTestServer(t, experiments.Options{})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
		wantErr    string
	}{
		{"malformed JSON", `{`, http.StatusBadRequest, CodeBadRequest, "parse request"},
		{"unknown top-level field", `{"kind": "campaign", "typo": 1}`, http.StatusBadRequest, CodeBadRequest, "typo"},
		{"unknown nested field", `{"kind": "campaign", "campaign": {"machines": [{"name": "core2"}], "suites": ["cpu2000"], "typo": 1}}`, http.StatusBadRequest, CodeBadRequest, "typo"},
		{"unknown kind", `{"kind": "fleet"}`, http.StatusBadRequest, CodeBadRequest, "unknown job kind"},
		{"kind/payload mismatch", `{"kind": "sweep", "campaign": {"machines": [{"name": "core2"}], "suites": ["cpu2000"]}}`, http.StatusBadRequest, CodeBadRequest, "without a sweep payload"},
		{"unknown machine", `{"kind": "campaign", "campaign": {"machines": [{"name": "core9"}], "suites": ["cpu2000"]}}`, http.StatusBadRequest, CodeUnknownMachine, "unknown machine"},
		{"bad sweep param", `{"kind": "sweep", "sweep": {"base": {"name": "core2"}, "param": "cores", "values": [2], "suite": "cpu2000"}}`, http.StatusBadRequest, CodeBadRequest, "unknown sweep parameter"},
		{"bad optimize objective", `{"kind": "optimize", "optimize": {"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96]}], "suite": "cpu2000", "objective": {"kind": "max-fun"}}}`, http.StatusBadRequest, CodeBadRequest, "unknown objective kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			if code != tc.wantStatus {
				t.Errorf("status %d, want %d (%s)", code, tc.wantStatus, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("error code %q, want %q", e.Error.Code, tc.wantCode)
			}
			if !strings.Contains(e.Error.Message, tc.wantErr) {
				t.Errorf("error %q should mention %q", e.Error.Message, tc.wantErr)
			}
		})
	}

	// Unknown job ids are 404 on GET and DELETE, with the unknown_job code.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", resp.StatusCode)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %s", body)
	}
	if e.Error.Code != CodeUnknownJob {
		t.Errorf("GET unknown job: code %q, want %q", e.Error.Code, CodeUnknownJob)
	}
	code, body := deleteJSON(t, ts.URL+"/v1/jobs/job-doesnotexist")
	if code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: status %d, want 404", code)
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %s", body)
	}
	if e.Error.Code != CodeUnknownJob {
		t.Errorf("DELETE unknown job: code %q, want %q", e.Error.Code, CodeUnknownJob)
	}
}

// TestJobsDisabled: a daemon constructed without a job engine answers
// every /v1/jobs route 503 with the jobs_disabled code, and GET /v1
// reports the missing capability.
func TestJobsDisabled(t *testing.T) {
	prov := experiments.NewProvider(experiments.Options{NumOps: testOps, FitStarts: 2})
	ts := httptest.NewServer(New(prov, nil).Handler())
	defer ts.Close()

	var disc DiscoveryResponse
	getJSON(t, ts.URL+"/v1", &disc)
	if disc.Capabilities.Jobs {
		t.Error("discovery reports jobs capability on a jobless daemon")
	}

	checkDisabled := func(status int, body []byte) {
		t.Helper()
		if status != http.StatusServiceUnavailable {
			t.Errorf("status %d, want 503 (%s)", status, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body is not JSON: %s", body)
		}
		if e.Error.Code != CodeJobsDisabled {
			t.Errorf("error code %q, want %q", e.Error.Code, CodeJobsDisabled)
		}
	}

	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind": "campaign"}`)
	checkDisabled(code, body)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkDisabled(resp.StatusCode, body)
	code, body = deleteJSON(t, ts.URL+"/v1/jobs/any")
	checkDisabled(code, body)
}
