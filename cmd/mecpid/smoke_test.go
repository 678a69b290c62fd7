package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/serve"
)

// smokeOps is the µop count per workload of the smoke checks.
const smokeOps = 20000

// The requests of the warm-daemon check: the paper campaign as a job, a
// predict it covers, a rob sweep, and the same rob axis as a one-axis
// plan — the sweep report carries no sourcing of its own, the plan's
// does.
const (
	campaignJob = `{"kind": "campaign", "campaign": {"machines": [{"name": "pentium4"}, {"name": "core2"}, {"name": "corei7"}], "suites": ["cpu2000", "cpu2006"]}}`
	predictReq  = `{"machine": {"name": "core2"}, "suite": "cpu2006", "workload": "mcf"}`
	sweepReq    = `{"base": {"name": "core2"}, "param": "rob", "values": [48, 96, 192], "suite": "cpu2000"}`
	planReq     = `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96, 192]}], "suite": "cpu2000"}`
)

// TestWarmDaemonDispatchesNoSimulation fills a run store the way the
// CLIs do — cmd/experiments' fig2 campaign (a paper Lab: Simulate, then
// Fig2) and cmd/sweep's rob sweep (ResolveJob, then Run), with their
// Options at smokeOps µops and 2 fit starts — and then starts the
// daemon on it. The daemon must answer without dispatching one
// simulation: in serve, healthz, a predict, the sweep and the same axis
// as a plan, which reports "simulated": 0, as does /v1/stats after
// them; in jobs, the paper campaign as a job, whose progress reports
// "simulated": 0 once it is done. So a run the CLIs stored is a hit
// for the daemon.
func TestWarmDaemonDispatchesNoSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper campaign cold at smoke size")
	}
	dir := filepath.Join(t.TempDir(), "store")
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{NumOps: smokeOps, FitStarts: 2, Store: store}
	lab := experiments.NewLab(opts)
	if err := lab.Simulate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lab.Fig2(); err != nil {
		t.Fatal(err)
	}
	sweep := experiments.JobSpec{Kind: experiments.JobKindSweep, Sweep: &experiments.SweepSpec{}}
	if err := json.Unmarshal([]byte(sweepReq), sweep.Sweep); err != nil {
		t.Fatal(err)
	}
	exp, err := experiments.ResolveJob(sweep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background(), opts, nil); err != nil {
		t.Fatal(err)
	}

	url := startDaemon(t, dir)
	t.Run("serve", func(t *testing.T) {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz: status %d", resp.StatusCode)
		}
		postOK(t, url+"/v1/predict", predictReq)
		postOK(t, url+"/v1/sweep", sweepReq)
		var plan struct {
			Sims experiments.SimStats `json:"sims"`
		}
		if err := json.Unmarshal(postOK(t, url+"/v1/plan", planReq), &plan); err != nil {
			t.Fatal(err)
		}
		if plan.Sims.Hits == 0 || plan.Sims.Simulated != 0 {
			t.Errorf("warm plan sims %+v, want only store hits", plan.Sims)
		}
		var stats serve.StatsResponse
		getJSON(t, url+"/v1/stats", &stats)
		if stats.Sims.Hits == 0 || stats.Sims.Simulated != 0 {
			t.Errorf("/v1/stats sims %+v, want only store hits", stats.Sims)
		}
	})
	t.Run("jobs", func(t *testing.T) {
		if p := runJob(t, url, campaignJob, 2*time.Minute); p.StoreHits == 0 || p.Simulated != 0 {
			t.Errorf("warm campaign job progress %+v, want only store hits", p)
		}
	})
}

// startDaemon runs realMain on the run store in dir at smokeOps µops
// and 2 fit starts until the test ends, and returns its base URL.
func startDaemon(t *testing.T, dir string) string {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- realMain(ctx, io.Discard, "127.0.0.1:0", addrFile, dir, "", smokeOps, 2, 0, 1, time.Minute, "")
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon exited with %v", err)
		}
	})
	return "http://" + waitAddr(t, addrFile)
}

// runJob submits a job, polls it until it is done within the given
// time, and returns its progress.
func runJob(t *testing.T, url, spec string, within time.Duration) experiments.JobProgress {
	t.Helper()
	var st experiments.JobStatus
	if err := json.Unmarshal(postOK(t, url+"/v1/jobs", spec), &st); err != nil || st.ID == "" {
		t.Fatalf("job submission: id %q, %v", st.ID, err)
	}
	deadline := time.Now().Add(within)
	for st.State != experiments.JobDone {
		if st.State == experiments.JobFailed || st.State == experiments.JobCancelled {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done within %v: %+v", st.ID, within, st.Progress)
		}
		time.Sleep(50 * time.Millisecond)
		getJSON(t, url+"/v1/jobs/"+st.ID, &st)
	}
	return st.Progress
}

// postOK posts body to url and returns the response body, which must
// come with status 200 or 202.
func postOK(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
