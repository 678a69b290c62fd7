// Package serve implements the HTTP/JSON layer of the mecpid daemon:
// the paper's fitted mechanistic-empirical model, exposed as a
// long-running prediction service. Handlers are thin translations from
// wire requests to the experiments.Provider: predicts go through its
// concurrent model cache with singleflight fitting, so N identical
// in-flight predict requests cost one simulate+fit, and each
// POST /v1/<kind> runs the same experiment a job of that kind runs. A
// warm run store costs zero simulations on every route. All responses
// are JSON; errors come back as a structured envelope,
// {"error": {"code": "<stable-slug>", "message": "..."}} with a 4xx/5xx
// status — clients branch on the code, never on message text.
//
// Endpoints (GET /v1 serves this index over the wire):
//
//	GET    /v1             API discovery: endpoint index, version, capability flags
//	GET    /healthz        liveness + simulator version
//	GET    /v1/machines    registered machine names
//	GET    /v1/suites      registered suites and their workloads
//	GET    /v1/params      registered exploration axes (valid sweep/plan params)
//	POST   /v1/predict     CPI + CPI stack for machine spec(s) × suite[/workload]
//	POST   /v1/sweep       one-axis what-if sweep over a derived machine
//	POST   /v1/plan        multi-axis exploration grid, fitted once and extrapolated per cell
//	POST   /v1/optimize    design-space search (min CPI / min cost / Pareto) over a grid
//	POST   /v1/seeds       multi-seed replication sweep: mean/CI on CPI and model error, fit stability
//	POST   /v1/jobs        submit an async campaign, sweep, plan, optimize or seeds job
//	GET    /v1/jobs        list jobs (submission order)
//	GET    /v1/jobs/{id}   one job's state, progress and result
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/stats       request, model-cache, simulation, store and job counters
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// maxBodyBytes bounds request bodies; predict and sweep requests are a
// few hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// Server translates HTTP requests into provider and job-engine calls.
// Construct with New; all methods are safe for concurrent use.
type Server struct {
	prov      *experiments.Provider
	jobs      *experiments.Jobs
	mux       *http.ServeMux
	endpoints []EndpointInfo

	inflight atomic.Int64
	requests []routeCounter
}

// routeCounter counts the requests one route handled, under its
// /v1/stats key.
type routeCounter struct {
	key string
	n   *atomic.Int64
}

// New builds a server around the given provider and job engine. jobs may
// be nil, in which case the /v1/jobs endpoints answer 503 with code
// jobs_disabled (GET /v1 reports the capability up front).
func New(prov *experiments.Provider, jobs *experiments.Jobs) *Server {
	s := &Server{prov: prov, jobs: jobs, mux: http.NewServeMux()}
	// The route table is registered and served from one place: GET /v1
	// returns exactly what was mounted, so the discovery index can never
	// drift from the mux, and every route gets its request counter here.
	add := func(method, path, key, doc string, h http.HandlerFunc) {
		n := new(atomic.Int64)
		s.requests = append(s.requests, routeCounter{key: key, n: n})
		s.mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			h(w, r)
		})
		s.endpoints = append(s.endpoints, EndpointInfo{Method: method, Path: path, Doc: doc})
	}
	add("GET", "/v1", "discovery", "API discovery: endpoint index, simulator version, capability flags", s.handleDiscovery)
	add("GET", "/healthz", "healthz", "liveness + simulator version", s.handleHealthz)
	add("GET", "/v1/machines", "machines", "registered machine names", s.handleMachines)
	add("GET", "/v1/suites", "suites", "registered suites and their workloads", s.handleSuites)
	add("GET", "/v1/params", "params", "registered exploration axes (valid sweep/plan params)", s.handleParams)
	add("POST", "/v1/predict", "predict", "CPI + CPI stack for machine spec(s) × suite[/workload]", s.handlePredict)
	for _, k := range experiments.Kinds() {
		if k.Doc != "" {
			add("POST", "/v1/"+k.Name, k.Name, k.Doc, s.handleKind(k))
		}
	}
	add("POST", "/v1/jobs", "jobSubmit", "submit an async campaign, sweep, plan, optimize or seeds job", s.handleJobSubmit)
	add("GET", "/v1/jobs", "jobList", "list jobs (submission order)", s.handleJobList)
	add("GET", "/v1/jobs/{id}", "jobGet", "one job's state, progress and result", s.jobByID((*experiments.Jobs).Get))
	add("DELETE", "/v1/jobs/{id}", "jobCancel", "cancel a queued or running job", s.jobByID((*experiments.Jobs).Cancel))
	add("GET", "/v1/stats", "stats", "request, model-cache, simulation, store and job counters", s.handleStats)
	return s
}

// Handler returns the daemon's root handler: the route mux wrapped with
// the in-flight gauge.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		s.mux.ServeHTTP(w, r)
	})
}

// writeJSON emits v indented, so responses read well from curl and pin
// down a stable golden wire format: the bytes json.MarshalIndent(v, "",
// "  ") writes, plus a newline. A value with an AppendJSON method (the
// predict responses) appends those bytes itself in one pass; any other
// is encoded compactly into a pooled buffer and indented in one pass
// (indentJSON), instead of paying for MarshalIndent's validating
// scanner on every response. A value that cannot be encoded (a NaN
// float) answers 500 in the error envelope.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := jsonBufs.Get().(*jsonBuf)
	defer b.release()
	var err error
	if a, ok := v.(jsonAppender); ok {
		b.out, err = a.AppendJSON(b.out[:0])
	} else {
		b.compact.Reset()
		if err = json.NewEncoder(&b.compact).Encode(v); err == nil {
			// Encode ends the document with the newline the response ends with.
			doc := b.compact.Bytes()
			b.out = append(indentJSON(b.out[:0], doc[:len(doc)-1]), '\n')
		}
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("response encoding failed: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b.out)
}

// jsonAppender is a response that appends its own writeJSON bytes.
type jsonAppender interface {
	AppendJSON([]byte) ([]byte, error)
}

// jsonBuf is writeJSON's scratch: the compact encoding and its indented
// form.
type jsonBuf struct {
	compact bytes.Buffer
	out     []byte
}

var jsonBufs = sync.Pool{New: func() any { return new(jsonBuf) }}

// maxPooledJSON caps the buffers kept for reuse: one that grew past it
// (a large job result) is left to the collector rather than pinned.
const maxPooledJSON = 1 << 20

func (b *jsonBuf) release() {
	if b.compact.Cap() <= maxPooledJSON && cap(b.out) <= maxPooledJSON {
		jsonBufs.Put(b)
	}
}

// jsonPunct marks the bytes indentJSON acts on outside strings.
var jsonPunct = [256]bool{'"': true, '{': true, '}': true, '[': true, ']': true, ',': true, ':': true}

// indentJSON appends src, a compact JSON document such as json.Marshal
// writes, to dst indented by two spaces per level. The output is
// byte-identical to json.Indent(dst, src, "", "  "): a newline and the
// depth's indent after every opening bracket and comma and before every
// closing one, a space after every colon, and {} and [] kept empty. It
// tracks only string and escape state and the nesting depth, so unlike
// json.Indent it neither validates src nor drops whitespace.
func indentJSON(dst, src []byte) []byte {
	depth := 0
	opened := false // the last punctuation opened an object or array
	for i := 0; i < len(src); {
		c := src[i]
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			dst = indentLine(dst, depth)
		}
		switch c {
		case '"':
			// Copy the string through its closing quote; a backslash
			// escapes the byte after it.
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j+1, len(src))
			dst = append(dst, src[i:j]...)
			i = j
			continue
		case '{', '[':
			opened = true
			dst = append(dst, c)
		case ',':
			dst = indentLine(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if opened {
				opened = false
			} else {
				depth--
				dst = indentLine(dst, depth)
			}
			dst = append(dst, c)
		default:
			// A number or literal: copy up to the next punctuation.
			j := i + 1
			for j < len(src) && !jsonPunct[src[j]] {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j
			continue
		}
		i++
	}
	return dst
}

// indentLine appends a newline and two spaces per depth level.
func indentLine(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// Stable error codes, the machine-readable half of the error envelope.
// Codes are API contract: clients branch on them (messages are for
// humans and may change), so existing codes must never be renamed.
const (
	// CodeBadRequest: the request body failed to parse or validate.
	CodeBadRequest = "bad_request"
	// CodeUnknownMachine: a machine name absent from the registry.
	CodeUnknownMachine = "unknown_machine"
	// CodeUnknownSuite: a suite name absent from the registry.
	CodeUnknownSuite = "unknown_suite"
	// CodeUnknownJob: a job ID the engine doesn't know (never existed,
	// or evicted past the retention bound).
	CodeUnknownJob = "unknown_job"
	// CodeJobsDisabled: the daemon runs without a job engine.
	CodeJobsDisabled = "jobs_disabled"
	// CodeQueueFull: job backlog at capacity — retry later.
	CodeQueueFull = "queue_full"
	// CodeJobsDraining: the daemon is shutting down — retry elsewhere.
	CodeJobsDraining = "jobs_draining"
	// CodeInternal: the request was fine; the server failed.
	CodeInternal = "internal"
)

// ErrorBody is the error envelope's payload: a stable machine-readable
// code and a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the uniform error wire shape:
// {"error": {"code": "...", "message": "..."}}.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// badRequest answers 400, classifying the error into the most specific
// stable code. Classification is by sentinel (errors.Is), never by
// message text, which a submitted machine or suite name could collide
// with.
func badRequest(w http.ResponseWriter, err error) {
	code := CodeBadRequest
	switch {
	case errors.Is(err, uarch.ErrUnknownMachine):
		code = CodeUnknownMachine
	case errors.Is(err, suites.ErrUnknownSuite):
		code = CodeUnknownSuite
	}
	writeError(w, http.StatusBadRequest, code, err)
}

// decodeStrict parses a request body with the same strictness as
// scenario files: unknown fields and trailing data are errors.
func decodeStrict(r *http.Request, w http.ResponseWriter, v any) error {
	if err := experiments.DecodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		return fmt.Errorf("parse request: %w", err)
	}
	return nil
}

// EndpointInfo describes one mounted route.
type EndpointInfo struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Doc    string `json:"doc"`
}

// Capabilities flags optional daemon features so clients can probe once
// instead of poking endpoints: Jobs is false when /v1/jobs would answer
// jobs_disabled, Store is false when the daemon simulates without a
// persistent run store.
type Capabilities struct {
	Jobs  bool `json:"jobs"`
	Store bool `json:"store"`
}

// DiscoveryResponse is the GET /v1 body: the versioned API surface, as
// mounted — the endpoint index is built from the same table the router
// serves, so it cannot drift.
type DiscoveryResponse struct {
	SimVersion   string         `json:"simVersion"`
	Endpoints    []EndpointInfo `json:"endpoints"`
	Capabilities Capabilities   `json:"capabilities"`
}

func (s *Server) handleDiscovery(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DiscoveryResponse{
		SimVersion: sim.Version,
		Endpoints:  s.endpoints,
		Capabilities: Capabilities{
			Jobs:  s.jobs != nil,
			Store: s.prov.Opts().Store != nil,
		},
	})
}

// HealthzResponse is the GET /healthz body.
type HealthzResponse struct {
	Status     string `json:"status"`
	SimVersion string `json:"simVersion"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthzResponse{Status: "ok", SimVersion: sim.Version})
}

// MachinesResponse is the GET /v1/machines body.
type MachinesResponse struct {
	Machines []string `json:"machines"`
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, MachinesResponse{Machines: uarch.Names()})
}

// SuiteInfo describes one registered suite at the daemon's µop count.
// Source is "builtin" for generated suites and "file" for suites backed
// by imported trace files (registered via -trace-suite); file-backed
// workloads carry recorded streams, so their op counts are fixed by the
// file rather than the daemon's -ops.
type SuiteInfo struct {
	Name      string   `json:"name"`
	Source    string   `json:"source"`
	Workloads []string `json:"workloads"`
}

// SuitesResponse is the GET /v1/suites body.
type SuitesResponse struct {
	Ops    int         `json:"ops"`
	Suites []SuiteInfo `json:"suites"`
}

func (s *Server) handleSuites(w http.ResponseWriter, r *http.Request) {
	resp := SuitesResponse{Ops: s.prov.Opts().NumOps}
	for _, name := range suites.Names() {
		suite, err := s.prov.Suite(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		src, err := suites.SuiteSource(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		info := SuiteInfo{Name: name, Source: string(src)}
		for _, wl := range suite.Workloads {
			info.Workloads = append(info.Workloads, wl.Name)
		}
		resp.Suites = append(resp.Suites, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ParamInfo describes one registered exploration axis.
type ParamInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// ParamsResponse is the GET /v1/params body: the axes a sweep or plan
// request may explore, in display order — clients discover valid plan
// axes here instead of hard-coding them.
type ParamsResponse struct {
	Params []ParamInfo `json:"params"`
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	var resp ParamsResponse
	for _, p := range experiments.SweepParams() {
		resp.Params = append(resp.Params, ParamInfo{Name: p.Name, Doc: p.Doc})
	}
	writeJSON(w, http.StatusOK, resp)
}

// PredictRequest asks for CPI predictions of machine specs (registered
// names, or base + overrides exactly as in scenario files) on a suite.
// Exactly one of Machine (the single-machine form, whose response is
// PredictResponse) or Machines (the batch form, answered with
// BatchPredictResponse, machines in request order) must be set. With
// Workload set, responses carry that workload alone; otherwise every
// workload plus the suite-wide accuracy.
type PredictRequest struct {
	Machine  *experiments.MachineSpec  `json:"machine,omitempty"`
	Machines []experiments.MachineSpec `json:"machines,omitempty"`
	Suite    string                    `json:"suite"`
	Workload string                    `json:"workload,omitempty"`
}

// WorkloadPrediction is the model's answer for one workload: measured
// (counter-derived) CPI, the model's prediction, and the predicted
// per-component CPI stack — the paper's headline deliverable, over HTTP.
type WorkloadPrediction struct {
	experiments.WorkloadCPI
	Stack []experiments.StackCPI `json:"stack"`
}

// PredictResponse is the POST /v1/predict body for the single-machine
// request form.
type PredictResponse struct {
	Machine    string                     `json:"machine"`
	ConfigHash string                     `json:"configHash"`
	Suite      string                     `json:"suite"`
	Ops        int                        `json:"ops"`
	FitStarts  int                        `json:"fitStarts"`
	Seed       uint64                     `json:"seed"`
	Params     core.Params                `json:"params"`
	Workloads  []WorkloadPrediction       `json:"workloads"`
	Accuracy   *experiments.SuiteAccuracy `json:"accuracy,omitempty"`
}

// MachinePrediction is one machine's slice of a batch predict response:
// PredictResponse with the request-wide fields (suite, fit options)
// hoisted to the batch envelope.
type MachinePrediction struct {
	Machine    string                     `json:"machine"`
	ConfigHash string                     `json:"configHash"`
	Params     core.Params                `json:"params"`
	Workloads  []WorkloadPrediction       `json:"workloads"`
	Accuracy   *experiments.SuiteAccuracy `json:"accuracy,omitempty"`
}

// BatchPredictResponse is the POST /v1/predict body for the batch
// request form, machines in request order.
type BatchPredictResponse struct {
	Suite     string              `json:"suite"`
	Ops       int                 `json:"ops"`
	FitStarts int                 `json:"fitStarts"`
	Seed      uint64              `json:"seed"`
	Machines  []MachinePrediction `json:"machines"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := decodeStrict(r, w, &req); err != nil {
		badRequest(w, err)
		return
	}
	if (req.Machine == nil) == (len(req.Machines) == 0) {
		badRequest(w, errors.New("predict request needs exactly one of machine or machines"))
		return
	}
	specs := req.Machines
	if req.Machine != nil {
		specs = []experiments.MachineSpec{*req.Machine}
	}
	// Resolve every machine before fitting any: a typo in the last spec
	// of a batch must not cost the fits of the first.
	machines := make([]*uarch.Machine, 0, len(specs))
	for _, spec := range specs {
		m, err := spec.Resolve()
		if err != nil {
			badRequest(w, err)
			return
		}
		machines = append(machines, m)
	}
	// The provider's own instantiation of the suite, so a suite it
	// cannot fit (a file-backed one under a non-zero SeedBase) is a bad
	// request here, not an internal error inside the fit.
	suite, err := s.prov.Suite(req.Suite)
	if err != nil {
		badRequest(w, err)
		return
	}
	// Reject a typoed workload before the expensive simulate+fit, not
	// after: the suite listing is already in hand.
	if req.Workload != "" {
		if _, ok := suite.Find(req.Workload); !ok {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("workload %q not in suite %s", req.Workload, suite.Name))
			return
		}
	}
	preds := make([]MachinePrediction, 0, len(machines))
	for _, m := range machines {
		f, err := s.prov.Fitted(m, req.Suite)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		mp, err := predictMachine(f, req.Workload)
		if err != nil {
			badRequest(w, err)
			return
		}
		preds = append(preds, mp)
	}
	opts := s.prov.Opts()
	if req.Machine != nil {
		// The single-machine form keeps its original flat wire shape. Both
		// forms go out through their AppendJSON.
		mp := preds[0]
		writeJSON(w, http.StatusOK, &PredictResponse{
			Machine:    mp.Machine,
			ConfigHash: mp.ConfigHash,
			Suite:      req.Suite,
			Ops:        opts.NumOps,
			FitStarts:  opts.FitStarts,
			Seed:       opts.Seed,
			Params:     mp.Params,
			Workloads:  mp.Workloads,
			Accuracy:   mp.Accuracy,
		})
		return
	}
	writeJSON(w, http.StatusOK, &BatchPredictResponse{
		Suite:     req.Suite,
		Ops:       opts.NumOps,
		FitStarts: opts.FitStarts,
		Seed:      opts.Seed,
		Machines:  preds,
	})
}

// predictMachine condenses one fitted model into its wire slice: every
// workload (or the one requested) predicted, plus suite-wide accuracy
// for the whole-suite form.
func predictMachine(f *experiments.Fitted, workload string) (MachinePrediction, error) {
	mp := MachinePrediction{
		Machine:    f.Machine.Name,
		ConfigHash: f.ConfigHash,
		Params:     f.Model.P,
	}
	obs := f.Obs
	if workload != "" {
		o, err := f.Observation(workload)
		if err != nil {
			return MachinePrediction{}, err
		}
		obs = []core.Observation{*o}
	}
	ws, acc := experiments.Score(f.Model, obs)
	mp.Workloads = make([]WorkloadPrediction, len(ws))
	for i, w := range ws {
		mp.Workloads[i] = WorkloadPrediction{w, experiments.StackCPIs(f.Model.Stack(obs[i].Feat))}
	}
	if workload == "" {
		mp.Accuracy = &acc
	}
	return mp, nil
}

// handleKind serves POST /v1/<kind>: the body is the kind's job payload,
// strict-decoded with the spec-file rules and validated by the kind's
// resolver — every check, suite lookups included, runs before anything
// simulates — then run under the request's context, so a client that
// disconnects stops the dispatch of new simulations.
func (s *Server) handleKind(k experiments.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec := experiments.JobSpec{Kind: k.Name}
		if err := decodeStrict(r, w, k.Payload(&spec)); err != nil {
			badRequest(w, err)
			return
		}
		exp, err := experiments.ResolveJob(spec, s.prov.Opts())
		if err != nil {
			badRequest(w, err)
			return
		}
		out, err := s.prov.Run(r.Context(), exp)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		writeJSON(w, http.StatusOK, out.Report)
	}
}

// PlanResponseFrom converts an executed plan into its wire report, the
// body POST /v1/plan answers.
func PlanResponseFrom(res *experiments.PlanResult) *experiments.PlanReport { return res.Report() }

// JobListResponse is the GET /v1/jobs body, in submission order.
type JobListResponse struct {
	Jobs []experiments.JobStatus `json:"jobs"`
}

// jobsEnabled answers 503 and returns false when no job engine is
// configured.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, CodeJobsDisabled,
			errors.New("job engine not configured"))
		return false
	}
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	// The body is a job spec, strict-decoded with exactly the
	// scenario-file rules (unknown fields are errors, down into the
	// nested payload).
	var req experiments.JobSpec
	if err := decodeStrict(r, w, &req); err != nil {
		badRequest(w, err)
		return
	}
	st, err := s.jobs.Submit(req)
	if err != nil {
		// A full queue or a draining engine is backpressure, not a bad
		// request.
		switch {
		case errors.Is(err, experiments.ErrJobQueueFull):
			writeError(w, http.StatusServiceUnavailable, CodeQueueFull, err)
		case errors.Is(err, experiments.ErrJobsDraining):
			writeError(w, http.StatusServiceUnavailable, CodeJobsDraining, err)
		default:
			badRequest(w, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.List()})
}

// jobByID serves a /v1/jobs/{id} route through op: Get, or Cancel —
// an idempotent no-op on a terminal job, whose snapshot tells the
// caller what actually happened either way.
func (s *Server) jobByID(op func(*experiments.Jobs, string) (experiments.JobStatus, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.jobsEnabled(w) {
			return
		}
		st, ok := op(s.jobs, r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, CodeUnknownJob,
				fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

// ModelStats reports the provider's model cache.
type ModelStats struct {
	Cached int `json:"cached"`
	Fits   int `json:"fits"`
	Hits   int `json:"hits"`
}

// StoreStats mirrors the run store's counters (present only when the
// daemon runs with a store).
type StoreStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// StatsResponse is the GET /v1/stats body. Requests counts handled
// requests per route. Jobs is present only when the daemon runs a job
// engine; Sims covers the synchronous requests only (predict fits and
// every completed POST /v1/<kind>) — each job carries its own progress
// counters.
type StatsResponse struct {
	Inflight int64                  `json:"inflight"`
	Requests map[string]int64       `json:"requests"`
	Models   ModelStats             `json:"models"`
	Sims     experiments.SimStats   `json:"sims"`
	Store    *StoreStats            `json:"store,omitempty"`
	Jobs     *experiments.JobCounts `json:"jobs,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ps := s.prov.Stats()
	resp := StatsResponse{
		Inflight: s.inflight.Load(),
		Requests: make(map[string]int64, len(s.requests)),
		Models:   ModelStats{Cached: s.prov.CachedModels(), Fits: ps.Fits, Hits: ps.ModelHits},
		Sims:     ps.Sim,
	}
	for _, c := range s.requests {
		resp.Requests[c.key] = c.n.Load()
	}
	if store := s.prov.Opts().Store; store != nil {
		st := store.Stats()
		resp.Store = &StoreStats{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts}
	}
	if s.jobs != nil {
		jc := s.jobs.Counts()
		resp.Jobs = &jc
	}
	writeJSON(w, http.StatusOK, resp)
}
