package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/golden"
)

// The wire goldens are checked with golden.Check. Regenerate them with
//
//	go test ./internal/serve -run Golden -update-golden
//
// only for an intentional wire-format or simulator/model change.

// postGolden POSTs body to path on a fresh test server (ops=2000,
// starts=2, seed=1) and pins the 200 response against the named golden.
func postGolden(t *testing.T, path, body, name string) {
	t.Helper()
	ts, _ := newTestServer(t, experiments.Options{})
	code, resp := postJSON(t, ts.URL+path, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, resp)
	}
	golden.Check(t, name, resp)
}

// TestPredictGoldenResponse pins the /v1/predict wire format
// byte-for-byte, in the style of the fig2 golden: field names, field
// order, indentation, float formatting and the numbers themselves must
// not drift silently.
func TestPredictGoldenResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	postGolden(t, "/v1/predict", `{"machine": {"name": "core2"}, "suite": "cpu2000", "workload": "mcf"}`,
		"predict_core2_cpu2000_ops2000.golden")
}

// TestPredictGoldenForms pins the two /v1/predict shapes the
// single-workload golden leaves out: the whole-suite form, which adds
// the accuracy block, and the batch form's envelope around its
// machines.
func TestPredictGoldenForms(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	for _, tc := range []struct{ body, name string }{
		{`{"machine": {"name": "core2"}, "suite": "cpu2000"}`, "predict_suite_core2_cpu2000_ops2000.golden"},
		{`{"machines": [{"name": "core2"}, {"name": "corei7"}], "suite": "cpu2000", "workload": "mcf"}`,
			"predict_batch_core2_corei7_cpu2000_ops2000.golden"},
	} {
		code, resp := postJSON(t, ts.URL+"/v1/predict", tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, code, resp)
		}
		golden.Check(t, tc.name, resp)
	}
}

// TestSuitesGoldenResponse pins the GET /v1/suites wire format — the
// suite roster, each suite's source classification ("builtin" vs
// "file"), and the workload lists. Regenerate only for an intentional
// roster or wire-format change (e.g. a new registered suite family).
func TestSuitesGoldenResponse(t *testing.T) {
	ts, _ := newTestServer(t, experiments.Options{})
	resp, err := http.Get(ts.URL + "/v1/suites")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "suites_ops2000.golden", body)
}

// The synchronous kind endpoints run exactly what a job of their kind
// runs, so each endpoint body is pinned against its kind's job golden
// (see TestJobResultGoldens): one golden per kind, on both surfaces.

// TestOptimizeGoldenResponse pins the /v1/optimize wire format: a
// one-axis min-CPI descent over core2's dispatch width on cpu2000.
func TestOptimizeGoldenResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end optimize is slow")
	}
	postGolden(t, "/v1/optimize", goldenOptimize, "job_optimize_core2_cpu2000_ops2000.golden")
}

// TestSweepGoldenResponse pins the /v1/sweep wire format.
func TestSweepGoldenResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	postGolden(t, "/v1/sweep", goldenSweep, "job_sweep_core2_cpu2000_ops2000.golden")
}

// TestPlanGoldenResponse pins the /v1/plan wire format.
func TestPlanGoldenResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end plan is slow")
	}
	postGolden(t, "/v1/plan", goldenPlan, "job_plan_core2_cpu2000_ops2000.golden")
}

// TestSeedsGoldenResponse pins the /v1/seeds wire format.
func TestSeedsGoldenResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end seeds are slow")
	}
	postGolden(t, "/v1/seeds", goldenSeeds, "job_seeds_core2_cpu2000_ops2000.golden")
}

// The request bodies the endpoint and job goldens share.
const (
	goldenSweep    = `{"base": {"name": "core2"}, "param": "rob", "values": [48, 96], "suite": "cpu2000"}`
	goldenPlan     = `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96]}, {"param": "mshrs", "values": [4, 8]}], "suite": "cpu2000"}`
	goldenOptimize = `{"base": {"name": "core2"}, "axes": [{"param": "width", "values": [2, 4]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}}`
	goldenSeeds    = `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 2}`
)

// TestJobResultGoldens pins the result of one job of every kind,
// submitted over POST /v1/jobs and polled to done. The result is
// re-indented the way the synchronous endpoints indent their bodies.
func TestJobResultGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end jobs are slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	for _, tc := range []struct{ kind, payload string }{
		{"campaign", `{"machines": [{"name": "core2"}], "suites": ["cpu2000"]}`},
		{"sweep", goldenSweep},
		{"plan", goldenPlan},
		{"optimize", goldenOptimize},
		{"seeds", goldenSeeds},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v1/jobs",
				`{"kind": "`+tc.kind+`", "`+tc.kind+`": `+tc.payload+`}`)
			if code != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", code, body)
			}
			var st experiments.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			final := pollJob(t, ts.URL, st.ID, 60*time.Second)
			if final.State != experiments.JobDone {
				t.Fatalf("job finished %s (error %q)", final.State, final.Error)
			}
			var compact, indented bytes.Buffer
			if err := json.Compact(&compact, final.Result); err != nil {
				t.Fatal(err)
			}
			if err := json.Indent(&indented, compact.Bytes(), "", "  "); err != nil {
				t.Fatal(err)
			}
			indented.WriteByte('\n')
			golden.Check(t, "job_"+tc.kind+"_core2_cpu2000_ops2000.golden", indented.Bytes())
		})
	}
}
