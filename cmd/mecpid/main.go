// Command mecpid is the model-serving daemon: the paper's fitted
// mechanistic-empirical model behind an HTTP/JSON API, answering the
// CPI and CPI-stack questions a simulator needs minutes for in
// microseconds once a model is fitted. Predict models are cached
// content-addressed per (machine configuration, suite, fit options)
// with singleflight deduplication — N concurrent requests for an
// unfitted pair trigger exactly one simulate+fit — and simulations are
// warm-started from the same run store the batch CLIs use, so a warm
// store means the daemon never dispatches a simulation.
//
// The API is versioned under /v1 and self-describing: GET /v1 returns
// the endpoint index, simulator version and capability flags, and every
// error is a structured envelope ({"error": {"code": ..., "message":
// ...}}) with a stable machine-readable code. Beyond the blocking calls
// — POST /v1/predict (single machine or a batch), POST /v1/sweep, POST
// /v1/plan (several exploration axes, discoverable via GET /v1/params,
// crossed into a grid of derived machines, fitted once and extrapolated
// per cell, with each workload's µop trace materialized once and
// replayed across the whole grid), and POST /v1/optimize (a design-space
// search that probes only the grid cells coordinate descent or
// successive halving needs, minimizing CPI or a cost proxy under a CPI
// budget, or mapping a Pareto frontier), and POST /v1/seeds (a
// multi-seed replication sweep reporting mean, sample deviation and
// Student-t 95% intervals on CPI and model error plus per-coefficient
// fit stability), each of the last four running exactly what a job of
// its kind runs — the daemon runs an async job engine: POST /v1/jobs
// executes whole campaigns, sweeps, plans, optimizations and seed
// sweeps in the background through the same entry points as
// cmd/experiments and cmd/sweep (so batch and daemon answers stay
// bit-identical), with per-job progress counters — per-run and, where
// it applies, per-cell, per-probe or per-seed — cancellation via
// DELETE, and terminal states persisted as JSON artifacts next to the
// run store.
//
// Usage:
//
//	mecpid [-addr 127.0.0.1:8080] [-addrfile FILE] [-store DIR]
//	       [-jobs DIR] [-jobworkers N] [-ops N] [-starts N]
//	       [-workers N] [-drain DURATION] [-pprof-addr 127.0.0.1:0]
//	       [-trace-suite NAME=PATH]...
//
// Each -trace-suite registers an imported trace file (or a directory of
// .mtrc files) as a named file-backed suite, usable anywhere a suite
// name is — predict, plan, optimize, jobs. GET /v1/suites reports such
// suites with "source": "file". The unregistered "file:PATH" suite-spec
// form works too, without any flag.
//
// With -pprof-addr the daemon additionally serves net/http/pprof on a
// dedicated listener at that address (off by default). The profiling
// endpoints are never mounted on the API listener: the API surface
// stays exactly the versioned /v1 tree, and the pprof port can be kept
// loopback-only while the API is exposed.
//
// See internal/serve for the endpoint reference. On SIGINT/SIGTERM the
// daemon stops accepting connections and drains in-flight requests and
// jobs for up to -drain (default 2m — a cold predict simulates a whole
// suite, so draining can legitimately take a while); whatever is still
// running then is cut off — jobs by cancellation, which stops the
// dispatch of new simulations and leaves the run store consistent — and
// the daemon exits cleanly either way.
//
// A client must send each request's headers within 5s and the whole
// request within a minute, and an idle keep-alive connection is closed
// after two minutes; responses have no deadline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/serve"
	"repro/internal/suites"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening (for scripts)")
	storeDir := flag.String("store", "", "run-store directory for cached simulation results (empty = no cache)")
	jobsDir := flag.String("jobs", "", "directory for terminal job artifacts (default: <store>.jobs next to the run store; empty without -store = in-memory only)")
	jobWorkers := flag.Int("jobworkers", 1, "concurrent background jobs")
	ops := flag.Int("ops", 300000, "µops per workload")
	starts := flag.Int("starts", 12, "regression multi-start count")
	workers := flag.Int("workers", 0, "simulation worker bound (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 2*time.Minute, "how long to drain in-flight requests and jobs on shutdown")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address over a dedicated listener (empty = off; never served on -addr)")
	var traceSuites stringList
	flag.Var(&traceSuites, "trace-suite", "register a file-backed suite as NAME=PATH, where PATH is one .mtrc trace file or a directory of them (repeatable)")
	flag.Parse()

	if err := registerTraceSuites(traceSuites); err != nil {
		fmt.Fprintln(os.Stderr, "mecpid:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := realMain(ctx, os.Stderr, *addr, *addrFile, *storeDir, *jobsDir, *ops, *starts, *workers, *jobWorkers, *drain, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "mecpid:", err)
		os.Exit(1)
	}
}

// The deadlines of every connection the daemon accepts. A client must
// send a request's line and headers within readHeaderTimeout and the
// whole request, body included, within readTimeout, and a keep-alive
// connection with no request in flight is closed after idleTimeout. So
// a client that trickles its bytes or goes quiet cannot hold a
// goroutine and a file descriptor forever. There is no write deadline:
// a cold predict or a blocking plan may simulate for minutes before it
// writes its response, and the server lifts the read deadline once the
// request is read, so neither is cut off while it runs.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns a server for h with the daemon's connection
// deadlines.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// stringList collects the values of a repeatable flag.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// registerTraceSuites resolves each NAME=PATH pair into a file-backed
// suite in the process-global registry. Files are read and verified up
// front, so a bad path or corrupt trace fails daemon startup instead of
// the first request that names the suite.
func registerTraceSuites(pairs []string) error {
	for _, p := range pairs {
		name, path, ok := strings.Cut(p, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("-trace-suite %q: want NAME=PATH", p)
		}
		if err := suites.RegisterFile(name, path); err != nil {
			return err
		}
	}
	return nil
}

// realMain runs the daemon until ctx is cancelled (graceful shutdown) or
// the listener fails. It logs the bound address to log — and to
// addrFile when given — once the socket is open, so scripts can start
// the daemon on port 0 and discover where it landed.
func realMain(ctx context.Context, log io.Writer, addr, addrFile, storeDir, jobsDir string, ops, starts, workers, jobWorkers int, drain time.Duration, pprofAddr string) error {
	var store *runstore.Store
	if storeDir != "" {
		var err error
		if store, err = runstore.Open(storeDir); err != nil {
			return err
		}
	}
	opts := experiments.Options{
		NumOps:    ops,
		FitStarts: starts,
		Workers:   workers,
		Store:     store,
	}
	prov := experiments.NewProvider(opts)
	if jobsDir == "" && storeDir != "" {
		// Terminal job artifacts land next to the run store by default,
		// so one -store flag configures the daemon's whole disk footprint.
		jobsDir = filepath.Clean(storeDir) + ".jobs"
	}
	jobs := experiments.NewJobs(opts, experiments.JobsConfig{
		Workers:     jobWorkers,
		ArtifactDir: jobsDir,
	})
	srv := serve.New(prov, jobs)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	storeDesc := "none"
	if store != nil {
		storeDesc = store.Dir()
	}
	jobsDesc := jobsDir
	if jobsDesc == "" {
		jobsDesc = "memory"
	}
	fmt.Fprintf(log, "mecpid: listening on http://%s (ops=%d, starts=%d, store=%s, jobs=%s)\n",
		bound, prov.Opts().NumOps, prov.Opts().FitStarts, storeDesc, jobsDesc)

	if pprofAddr != "" {
		// The profiling endpoints live on their own mux and listener so
		// they can never leak onto the API surface (the stdlib's side
		// effect of registering on DefaultServeMux is irrelevant here:
		// the API handler is an explicit serve.Handler mux). The pprof
		// server is torn down with the process; it needs no drain.
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := newHTTPServer(pmux)
		defer ps.Close()
		go ps.Serve(pln)
		fmt.Fprintf(log, "mecpid: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	hs := newHTTPServer(srv.Handler())
	// drainJobsNow cancels whatever jobs are in flight so the engine's
	// workers exit before realMain returns — every exit path, error
	// paths included, must not orphan job goroutines.
	drainJobsNow := func() {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		jobs.Drain(cancelled)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		drainJobsNow() // the listener failed
		return err
	case <-ctx.Done():
		// One drain window covers both the HTTP requests and the job
		// engine: requests first (they are what clients are blocked on),
		// jobs with whatever budget remains.
		shutCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				drainJobsNow()
				return err
			}
			// Requests still running after the drain window (a cold fit
			// can take minutes) are cut off; that is a forced but clean
			// exit, not a daemon failure.
			hs.Close()
			fmt.Fprintf(log, "mecpid: drain window (%v) elapsed; forcing exit\n", drain)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			drainJobsNow()
			return err
		}
		fmt.Fprintln(log, "mecpid: draining jobs...")
		jobs.Drain(shutCtx)
		fmt.Fprintln(log, "mecpid: shut down")
		return nil
	}
}
