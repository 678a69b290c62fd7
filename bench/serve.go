package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// The traffic spans the stock machines and both paper suites, so the
// provider's warm cache holds every model a request can name.
var (
	stockMachines = []string{"pentium4", "core2", "corei7"}
	paperSuites   = []string{"cpu2000", "cpu2006"}
)

// latencyLimit is the response time past which a correct response no
// longer counts towards ops_per_s.
const latencyLimit = 10 * time.Millisecond

// requestsPerSeed is the length of the seeded request sequence the
// clients cycle through.
const requestsPerSeed = 4096

// predictRequest is one request of serve-predict's traffic.
type predictRequest struct {
	kind     string // "single", "suite" or "batch"
	machines []string
	suite    string
	workload string // "" asks for the whole suite
	body     []byte
}

// requestMix draws serve-predict's request sequence from seed: 50%
// single-workload, 30% suite-wide and 20% suite-wide batches over all
// three machines in a drawn order.
func requestMix(seed uint64, ops int) ([]predictRequest, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	names := map[string][]string{}
	for _, sn := range paperSuites {
		s, err := suites.ByName(sn, suites.Options{NumOps: ops, SeedBase: seed})
		if err != nil {
			return nil, err
		}
		for _, w := range s.Workloads {
			names[sn] = append(names[sn], w.Name)
		}
	}
	seq := make([]predictRequest, requestsPerSeed)
	for i := range seq {
		r := predictRequest{suite: paperSuites[rng.IntN(len(paperSuites))]}
		var body serve.PredictRequest
		switch p := rng.IntN(10); {
		case p < 5:
			r.kind, r.machines = "single", []string{stockMachines[rng.IntN(len(stockMachines))]}
			ws := names[r.suite]
			r.workload = ws[rng.IntN(len(ws))]
		case p < 8:
			r.kind, r.machines = "suite", []string{stockMachines[rng.IntN(len(stockMachines))]}
		default:
			r.kind = "batch"
			for _, j := range rng.Perm(len(stockMachines)) {
				r.machines = append(r.machines, stockMachines[j])
			}
		}
		for _, m := range r.machines {
			body.Machines = append(body.Machines, experiments.MachineSpec{Name: m})
		}
		if r.kind != "batch" {
			body.Machine, body.Machines = &body.Machines[0], nil
		}
		body.Suite, body.Workload = r.suite, r.workload
		var err error
		if r.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		seq[i] = r
	}
	return seq, nil
}

// warmProvider fills a fresh run store in dir with the paper campaign,
// then builds a provider over it and fits every model the traffic can
// name from the stored runs, as a daemon started on a filled store does
// before it serves.
func warmProvider(rc runConfig, dir string) (*experiments.Provider, error) {
	store, err := runstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	opts := labOptions(rc, 0)
	opts.Store = store
	if err := experiments.NewLab(opts).Simulate(); err != nil {
		return nil, err
	}
	prov := experiments.NewProvider(opts)
	for _, mn := range stockMachines {
		m, err := uarch.ByName(mn)
		if err != nil {
			return nil, err
		}
		for _, sn := range paperSuites {
			if _, err := prov.Fitted(m, sn); err != nil {
				return nil, err
			}
		}
	}
	return prov, nil
}

// fittedFor returns the provider's models for the request's machines.
func fittedFor(prov *experiments.Provider, r predictRequest) ([]*experiments.Fitted, error) {
	out := make([]*experiments.Fitted, 0, len(r.machines))
	for _, mn := range r.machines {
		m, err := uarch.ByName(mn)
		if err != nil {
			return nil, err
		}
		f, err := prov.Fitted(m, r.suite)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// requestedObs returns the observations a request asks about.
func requestedObs(f *experiments.Fitted, workload string) ([]core.Observation, error) {
	if workload == "" {
		return f.Obs, nil
	}
	o, err := f.Observation(workload)
	if err != nil {
		return nil, err
	}
	return []core.Observation{*o}, nil
}

// verifyPrediction checks a predict response float for float against
// the provider's fitted models.
func verifyPrediction(prov *experiments.Provider, r predictRequest, body []byte) error {
	var got []serve.MachinePrediction
	if r.kind == "batch" {
		var resp serve.BatchPredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = resp.Machines
	} else {
		var resp serve.PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = []serve.MachinePrediction{{Machine: resp.Machine, Params: resp.Params,
			Workloads: resp.Workloads, Accuracy: resp.Accuracy}}
	}
	fitted, err := fittedFor(prov, r)
	if err != nil {
		return err
	}
	if len(got) != len(fitted) {
		return fmt.Errorf("%d machines in the response, %d asked for", len(got), len(fitted))
	}
	for i, f := range fitted {
		mp := got[i]
		obs, err := requestedObs(f, r.workload)
		if err != nil {
			return err
		}
		if mp.Machine != f.Machine.Name || mp.Params != f.Model.P || len(mp.Workloads) != len(obs) {
			return fmt.Errorf("machine %s: wrong machine, parameters or workload count", f.Machine.Name)
		}
		var errs []float64
		for j, o := range obs {
			wp := mp.Workloads[j]
			pred, st := f.Model.PredictCPI(o.Feat), f.Model.Stack(o.Feat)
			if wp.Workload != o.Name || wp.MeasuredCPI != o.MeasuredCPI || wp.PredictedCPI != pred ||
				len(wp.Stack) != int(sim.NumComponents) {
				return fmt.Errorf("machine %s, workload %s: prediction differs", f.Machine.Name, o.Name)
			}
			for k, c := range sim.Components() {
				if wp.Stack[k].Component != c.String() || wp.Stack[k].CPI != st.Cycles[c] {
					return fmt.Errorf("machine %s, workload %s: stack differs", f.Machine.Name, o.Name)
				}
			}
			errs = append(errs, stats.RelErr(pred, o.MeasuredCPI))
		}
		if r.workload == "" && (mp.Accuracy == nil || mp.Accuracy.AvgRelErr != stats.Mean(errs)) {
			return fmt.Errorf("machine %s: suite accuracy differs", f.Machine.Name)
		}
	}
	return nil
}

// references sends every distinct request of seq once through do,
// verifies each response against the provider, and returns the
// verified bodies by request body. At seed 0 the first body of each
// request kind must match its pinned digest.
func references(rc runConfig, o *outcome, prov *experiments.Provider, seq []predictRequest,
	do func(r predictRequest) ([]byte, int, error)) map[string][]byte {
	refs := map[string][]byte{}
	pinned := map[string]string{} // request kind → body of its first request
	for _, r := range seq {
		if _, ok := pinned[r.kind]; !ok {
			pinned[r.kind] = string(r.body)
		}
	}
	for _, r := range seq {
		if _, seen := refs[string(r.body)]; seen {
			continue
		}
		o.attempted++
		body, status, err := do(r)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			err = verifyPrediction(prov, r, body)
		}
		if err == nil && pinned[r.kind] == string(r.body) && !checkDigest(rc, o, "predict."+r.kind, body) {
			err = fmt.Errorf("does not match its pinned digest")
		}
		if err != nil {
			o.fail("%s request %s: %v", r.kind, r.body, err)
			continue
		}
		refs[string(r.body)] = body
	}
	return refs
}

// loopResult is what a closed loop observed.
type loopResult struct {
	lat               []float64 // seconds, every response
	elapsed           time.Duration
	attempted, failed int
	withinLimit       int
	firstFailure      string
}

// closedLoop runs serveClients clients for d, each sending its next
// request only once the previous response has been read in full. The
// clients share one position in seq; each response must be 200 and
// byte-identical to its reference.
func closedLoop(client *http.Client, url string, seq []predictRequest, refs map[string][]byte,
	next *atomic.Int64, d time.Duration) loopResult {
	start := time.Now()
	deadline := start.Add(d)
	results := make([]loopResult, serveClients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			for time.Now().Before(deadline) {
				r := seq[next.Add(1)%int64(len(seq))]
				start := time.Now()
				body, status, err := post(client, url, r.body)
				lat := time.Since(start)
				res.attempted++
				res.lat = append(res.lat, lat.Seconds())
				ref, ok := refs[string(r.body)]
				if err != nil || status != http.StatusOK || !ok || !bytes.Equal(body, ref) {
					res.failed++
					if res.firstFailure == "" {
						res.firstFailure = fmt.Sprintf("%s request %s: status %d, err %v", r.kind, r.body, status, err)
					}
					continue
				}
				if lat < latencyLimit {
					res.withinLimit++
				}
			}
		}()
	}
	wg.Wait()
	all := loopResult{elapsed: time.Since(start)}
	for _, r := range results {
		all.lat = append(all.lat, r.lat...)
		all.attempted += r.attempted
		all.failed += r.failed
		all.withinLimit += r.withinLimit
		if all.firstFailure == "" {
			all.firstFailure = r.firstFailure
		}
	}
	return all
}

func post(client *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// runServePredict: a closed loop of serveClients clients sends the
// seeded request sequence to the daemon's handler over loopback HTTP,
// against a provider warmed in set-up. Requests do no simulation and no
// fitting; a fit during the measured window is a failure.
func runServePredict(rc runConfig, o *outcome) error {
	seq, err := requestMix(rc.seed, rc.size.ops)
	if err != nil {
		return err
	}
	var prov *experiments.Provider
	var setups []float64
	for range max(rc.size.setups, 1) {
		dir, err := os.MkdirTemp(rc.dir, "setup-")
		if err != nil {
			return err
		}
		start := time.Now()
		prov, err = warmProvider(rc, dir)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}

	ts := httptest.NewServer(serve.New(prov, nil).Handler())
	defer ts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	url := ts.URL + "/v1/predict"

	refs := references(rc, o, prov, seq, func(r predictRequest) ([]byte, int, error) {
		return post(client, url, r.body)
	})
	var next atomic.Int64
	warm := closedLoop(client, url, seq, refs, &next, rc.size.warmup)
	fitsBefore := prov.Stats().Fits
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	measured := closedLoop(client, url, seq, refs, &next, rc.seconds)
	runtime.ReadMemStats(&ms)

	for _, l := range []loopResult{warm, measured} {
		o.attempted += l.attempted
		if l.failed > 0 {
			o.failed += l.failed
			o.notef("FAIL: %d responses, first: %s", l.failed, l.firstFailure)
		}
	}
	o.attempted++
	if fits := prov.Stats().Fits - fitsBefore; fits != 0 {
		o.fail("%d model fits during the measured window", fits)
	}
	if measured.attempted == 0 {
		return fmt.Errorf("no request completed in the measured window")
	}
	p, tailS, ok := tail(measured.lat, 99.9, 99, 90)
	if ok {
		o.notef("requests %d, p50 %.3f ms, p%g %.3f ms, %d over %v",
			measured.attempted, 1000*median(measured.lat), p, 1000*tailS,
			measured.attempted-measured.failed-measured.withinLimit, latencyLimit)
	}
	o.notef("%d set-ups: %v s", len(setups), setups)
	o.values["setup_s"] = median(setups)
	o.values["latency_ms"] = 1000 * median(measured.lat)
	o.values["ops_per_s"] = float64(measured.withinLimit) / measured.elapsed.Seconds()
	o.values["alloc_kb_op"] = float64(ms.TotalAlloc-allocBefore) / float64(measured.attempted) / 1024
	return nil
}

// traceServePredict runs the first size.tracedRequests requests of the
// sequence one at a time through the handler itself, and then, on each
// request's own inputs, the layer calls it makes: Provider.Fitted per
// machine and the model evaluation per workload.
func traceServePredict(rc runConfig, o *outcome) error {
	seq, err := requestMix(rc.seed, rc.size.ops)
	if err != nil {
		return err
	}
	rec := newRecorder()
	setup := rec.begin(setupRoot, 0, 0)
	prov, err := warmProvider(rc, rc.dir)
	rec.end(setup)
	if err != nil {
		return err
	}
	handler := serve.New(prov, nil).Handler()
	serveOnce := func(r predictRequest) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(r.body)))
		return w
	}
	refs := references(rc, o, prov, seq, func(r predictRequest) ([]byte, int, error) {
		w := serveOnce(r)
		return w.Body.Bytes(), w.Code, nil
	})

	var lr layerReport
	fitsBefore := prov.Stats().Fits
	n := min(rc.size.tracedRequests, len(seq))
	var handlerS float64
	for i, r := range seq[:n] {
		root := rec.begin("request", 0, i+1)
		h := rec.begin("serve.handler", root, i+1)
		w := serveOnce(r)
		rec.end(h)
		handlerS += (rec.spans[h-1].End - rec.spans[h-1].Start) / 1e6
		var fitted []*experiments.Fitted
		err := rec.call("experiments.fitted", root, func() (err error) {
			fitted, err = fittedFor(prov, r)
			return err
		})
		if err == nil {
			err = rec.call("core.predict", root, func() error {
				for _, f := range fitted {
					obs, err := requestedObs(f, r.workload)
					if err != nil {
						return err
					}
					for _, ob := range obs {
						st := f.Model.Stack(ob.Feat)
						sink += f.Model.PredictCPI(ob.Feat) + st.Cycles[0]
					}
				}
				return nil
			})
		}
		rec.end(root)
		o.attempted++
		if ref, ok := refs[string(r.body)]; err != nil || w.Code != http.StatusOK || !ok || !bytes.Equal(w.Body.Bytes(), ref) {
			o.fail("%s request %s: status %d, err %v", r.kind, r.body, w.Code, err)
		}
		lr.respBytes += float64(w.Body.Len()) / float64(n)
	}
	o.attempted++
	if fits := prov.Stats().Fits - fitsBefore; fits != 0 {
		o.fail("%d model fits while serving", fits)
	}
	lr.jobS = handlerS
	for _, sn := range paperSuites {
		fitted, err := fittedFor(prov, predictRequest{machines: stockMachines, suite: sn})
		if err != nil {
			return err
		}
		for _, f := range fitted {
			for _, ob := range f.Obs {
				lr.modelErr += stats.RelErr(f.Model.PredictCPI(ob.Feat), ob.MeasuredCPI) /
					float64(len(f.Obs)*len(stockMachines)*len(paperSuites))
			}
		}
	}
	return finishTrace(rc, rec, lr, o)
}

// sink keeps the traced model evaluations from being optimized away.
var sink float64
