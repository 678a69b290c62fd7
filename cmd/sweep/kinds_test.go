package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// TestEveryKindOnEverySurface walks the experiment-kind table across
// every surface: each kind is accepted by the job engine, each kind
// with a synchronous endpoint is mounted in GET /v1 and counted in
// /v1/stats, each kind cmd/sweep has a mode for prints through realMain
// with -json the report its endpoint answers, and every kind/payload
// mismatch is rejected.
func TestEveryKindOnEverySurface(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one experiment of every kind")
	}
	// spec tags a job spec with kind and fills in the payloads of kinds.
	spec := func(t *testing.T, kind string, kinds ...experiments.Kind) experiments.JobSpec {
		t.Helper()
		js := experiments.JobSpec{Kind: kind}
		for _, k := range kinds {
			if err := json.Unmarshal([]byte(kindPayloads[k.Name]), k.Payload(&js)); err != nil {
				t.Fatal(err)
			}
		}
		return js
	}

	opts := experiments.Options{NumOps: cliOps, FitStarts: 2}
	jobs := experiments.NewJobs(opts, experiments.JobsConfig{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		jobs.Drain(ctx)
	})
	ts := httptest.NewServer(serve.New(experiments.NewProvider(opts), jobs).Handler())
	defer ts.Close()
	var disc serve.DiscoveryResponse
	getJSON(t, ts.URL+"/v1", &disc)

	for _, k := range experiments.Kinds() {
		t.Run(k.Name, func(t *testing.T) {
			if _, ok := kindPayloads[k.Name]; !ok {
				t.Fatalf("no test payload for kind %q; extend the table", k.Name)
			}

			// The job engine accepts the kind; the goldens pin what its jobs
			// compute, so the job is cancelled straight away.
			st, err := jobs.Submit(spec(t, k.Name, k))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			jobs.Cancel(st.ID)

			// Every mismatch fails: a foreign payload alone, and one beside
			// the kind's own.
			for _, other := range experiments.Kinds() {
				if other.Name == k.Name {
					continue
				}
				if _, err := jobs.Submit(spec(t, k.Name, other)); err == nil ||
					!strings.Contains(err.Error(), "without a "+k.Name+" payload") {
					t.Errorf("%s job with only a %s payload: %v", k.Name, other.Name, err)
				}
				if _, err := jobs.Submit(spec(t, k.Name, k, other)); err == nil ||
					!strings.Contains(err.Error(), "with a "+other.Name+" payload") {
					t.Errorf("%s job with a %s payload too: %v", k.Name, other.Name, err)
				}
			}

			endpoint := serve.EndpointInfo{Method: "POST", Path: "/v1/" + k.Name, Doc: k.Doc}
			if mounted := slices.Contains(disc.Endpoints, endpoint); mounted != (k.Doc != "") {
				t.Errorf("GET /v1 lists %+v: %v, want %v", endpoint, mounted, k.Doc != "")
			}
			var resp []byte
			if k.Doc != "" {
				code, body := post(t, ts.URL+endpoint.Path, kindPayloads[k.Name])
				if code != http.StatusOK {
					t.Fatalf("POST %s: status %d: %s", endpoint.Path, code, body)
				}
				resp = body
				var stats serve.StatsResponse
				getJSON(t, ts.URL+"/v1/stats", &stats)
				if n, ok := stats.Requests[k.Name]; !ok || n != 1 {
					t.Errorf("/v1/stats requests[%q] = %d (present %v), want 1", k.Name, n, ok)
				}
			}

			out, _, ok := runKind(t, k.Name, kindPayloads[k.Name], cliOps, "", true)
			if !ok {
				if k.Name != experiments.JobKindCampaign {
					t.Fatalf("no cmd/sweep mode for kind %q; extend runKind", k.Name)
				}
				return
			}
			if got, want := keys(t, []byte(out)), keys(t, resp); !slices.Equal(got, want) {
				t.Errorf("-json report fields %v, want the POST %s fields %v", got, endpoint.Path, want)
			}
		})
	}
}

// kindPayloads holds one payload per experiment kind, on core2 and
// cpu2000: the surface walk submits and posts them, and the text-report
// goldens print some of them.
var kindPayloads = map[string]string{
	experiments.JobKindCampaign: `{"machines": [{"name": "core2"}], "suites": ["cpu2000"]}`,
	experiments.JobKindSweep:    `{"base": {"name": "core2"}, "param": "rob", "values": [48], "suite": "cpu2000"}`,
	experiments.JobKindPlan:     `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48]}, {"param": "mshrs", "values": [4]}], "suite": "cpu2000"}`,
	experiments.JobKindOptimize: `{"base": {"name": "core2"}, "axes": [{"param": "width", "values": [2, 4]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}}`,
	experiments.JobKindSeeds:    `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 1}`,
}

// cliOps keeps realMain runs fast.
const cliOps = 2000

// runKind runs realMain at ops µops and 2 fit starts in cmd/sweep's
// mode for kind, against the run store in dir ("" for none): the
// -param/-values flags for a sweep and for a plan of two or more axes
// (the grid mode), the payload as a spec file otherwise. It returns what
// realMain prints to stdout and to stderr; ok is false for a kind
// cmd/sweep has no mode for.
func runKind(t *testing.T, kind, payload string, ops int, dir string, jsonOut bool) (out, stderr string, ok bool) {
	t.Helper()
	base, suite := "core2", "cpu2000"
	var params, values []string
	files := map[string]string{}
	switch kind {
	case experiments.JobKindSweep:
		var sw experiments.SweepSpec
		if err := json.Unmarshal([]byte(payload), &sw); err != nil {
			t.Fatal(err)
		}
		base, suite = sw.Base.Name, sw.Suite
		params, values = []string{sw.Param}, []string{joinInts(sw.Values)}
	case experiments.JobKindPlan, experiments.JobKindOptimize, experiments.JobKindSeeds:
		var plan experiments.PlanSpec
		if kind == experiments.JobKindPlan {
			if err := json.Unmarshal([]byte(payload), &plan); err != nil {
				t.Fatal(err)
			}
		}
		if len(plan.Axes) >= 2 {
			base, suite = plan.Base.Name, plan.Suite
			for _, a := range plan.Axes {
				params, values = append(params, a.Param), append(values, joinInts(a.Values))
			}
			break
		}
		files[kind] = filepath.Join(t.TempDir(), kind+".json")
		if err := os.WriteFile(files[kind], []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		return "", "", false
	}
	var stdout, errOut bytes.Buffer
	if err := realMain(&stdout, &errOut, base, params, values, suite, ops, 2, 0, dir,
		files[experiments.JobKindPlan], files[experiments.JobKindOptimize], files[experiments.JobKindSeeds], jsonOut); err != nil {
		t.Fatalf("realMain %s (json %v): %v\n%s", kind, jsonOut, err, errOut.String())
	}
	return stdout.String(), errOut.String(), true
}

func joinInts(vs []int) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = strconv.Itoa(v)
	}
	return strings.Join(s, ",")
}

// keys returns a JSON object's top-level field names, sorted.
func keys(t *testing.T, data []byte) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, data)
	}
	var out []string
	for k := range obj {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func post(t *testing.T, url, body string) (int, []byte) {
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
	return resp.StatusCode, data
}
