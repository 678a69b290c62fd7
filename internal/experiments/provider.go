package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// Provider serves fitted mechanistic-empirical models on demand — the
// concurrent, long-lived counterpart to the batch Lab, and the engine
// behind the mecpid daemon. Fitted models are cached content-addressed
// on (machine configuration hash, suite, fit options). The configuration
// hash covers the complete machine — the name included, exactly like the
// run store's keys — so a renamed variant is a distinct model even with
// equal parameters, and a variant can never alias its base. Concurrent
// requests for an uncached key are deduplicated singleflight-style —
// exactly one caller simulates and fits (warm-started from the run store
// when one is configured) while the others block on the same result.
// Failed fits are not cached; the next request retries. Suites are
// resolved once per provider under its NumOps and SeedBase (Suite), by
// the same rule. Run executes any other experiment uncached, counting
// its sourcing alongside.
//
// The caches only grow: a Fitted entry (model, observations, runs) is a
// few hundred KB, so even thousands of distinct machine×suite keys stay
// cheap next to the simulations they replace.
type Provider struct {
	opts Options

	mu     sync.Mutex
	models map[string]*fitCall
	suites map[string]suites.Suite
	stats  ProviderStats
}

// ProviderStats counts how the provider sourced its answers, cumulative
// since NewProvider.
type ProviderStats struct {
	// Fits is the number of models actually fitted.
	Fits int
	// ModelHits is the number of Fitted calls served without fitting:
	// from the cache, or by joining an in-flight fit of the same key.
	ModelHits int
	// Sim aggregates run sourcing (store hits vs dispatched simulations)
	// across all fits and every successful Run.
	Sim SimStats
}

// Fitted bundles everything the provider derives for one (machine,
// suite) pair. Instances are shared across callers and cached forever:
// treat every field as immutable.
type Fitted struct {
	Machine *uarch.Machine
	// ConfigHash is Machine.ConfigHash(), computed once at fit time.
	ConfigHash string
	Suite      suites.Suite
	Model      *core.Model
	// Obs are the fitting observations, sorted by workload name (the
	// same ordering Lab.Observations uses, so fits are bit-identical).
	Obs []core.Observation
	// Runs holds the underlying simulations by workload name.
	Runs map[string]*sim.Result
}

// Observation returns the named workload's fitting observation.
func (f *Fitted) Observation(workload string) (*core.Observation, error) {
	for i := range f.Obs {
		if f.Obs[i].Name == workload {
			return &f.Obs[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: workload %q not in suite %s", workload, f.Suite.Name)
}

// fitCall is one singleflight slot: the winner closes done after filling
// res/err, and every later caller for the same key blocks on done.
type fitCall struct {
	done chan struct{}
	res  *Fitted
	err  error
}

// NewProvider builds a provider with the given options (defaults applied
// as in Lab). The provider is safe for concurrent use.
func NewProvider(opts Options) *Provider {
	return &Provider{opts: opts.withDefaults(), models: map[string]*fitCall{}, suites: map[string]suites.Suite{}}
}

// Opts returns the provider's resolved options.
func (p *Provider) Opts() Options { return p.opts }

// Stats returns a snapshot of the provider counters.
func (p *Provider) Stats() ProviderStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// CachedModels returns the number of model-cache entries, in-flight fits
// included.
func (p *Provider) CachedModels() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.models)
}

// Suite returns the named suite instantiated with the provider's NumOps
// and SeedBase, the instantiation every fit of the provider uses. The
// first successful resolution of a name is kept for the provider's
// lifetime, so a file-backed suite's trace files are read once; a
// failed one is not, and the next call retries. The returned suite is
// shared: treat it as immutable.
func (p *Provider) Suite(name string) (suites.Suite, error) {
	p.mu.Lock()
	s, ok := p.suites[name]
	p.mu.Unlock()
	if ok {
		return s, nil
	}
	s, err := suites.ByName(name, suites.Options{NumOps: p.opts.NumOps, SeedBase: p.opts.SeedBase})
	if err != nil {
		return suites.Suite{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.suites[name]; ok {
		return prev, nil // a concurrent caller resolved it first
	}
	p.suites[name] = s
	return s, nil
}

// key content-addresses one fitted model: everything that determines its
// value — the complete machine configuration, the suite, and the
// provider's fit options (ops and seedbase are part of the suite
// instantiation; starts and seed drive the regression restarts).
func (p *Provider) key(m *uarch.Machine, suiteName string) string {
	return fmt.Sprintf("%s\n%s\nops=%d starts=%d seed=%d seedbase=%d",
		m.ConfigHash(), suiteName, p.opts.NumOps, p.opts.FitStarts, p.opts.Seed, p.opts.SeedBase)
}

// Fitted returns the fitted model (plus its observations and runs) for
// the machine on the named suite, simulating and fitting at most once
// per distinct key no matter how many callers ask concurrently.
func (p *Provider) Fitted(m *uarch.Machine, suiteName string) (*Fitted, error) {
	key := p.key(m, suiteName)
	p.mu.Lock()
	if c, ok := p.models[key]; ok {
		p.mu.Unlock()
		<-c.done
		// Only a successful join is a hit: callers that waited on a fit
		// which then failed were served an error, not a cached model.
		if c.err == nil {
			p.mu.Lock()
			p.stats.ModelHits++
			p.mu.Unlock()
		}
		return c.res, c.err
	}
	c := &fitCall{done: make(chan struct{})}
	p.models[key] = c
	p.mu.Unlock()

	// The completion runs deferred so a panic inside the fit (and the
	// simulator under it) cannot poison the key: waiters are released
	// with an error, the slot is freed for a retry, and the panic then
	// propagates to this caller.
	defer func() {
		if c.res == nil && c.err == nil {
			c.err = fmt.Errorf("experiments: fit for %s on %s panicked", suiteName, m.Name)
		}
		p.mu.Lock()
		if c.err != nil {
			delete(p.models, key) // failed fits retry on the next request
		} else {
			p.stats.Fits++
		}
		p.mu.Unlock()
		close(c.done)
	}()
	suite, err := p.Suite(suiteName)
	if err != nil {
		c.err = err
		return nil, err
	}
	var st SimStats
	c.res, st, c.err = fitSuite(context.Background(), m, suite, p.opts)
	p.addSimStats(st)
	return c.res, c.err
}

// fitSuite simulates the resolved suite on the machine (through the run
// store when configured) and fits the model in a one-machine Lab — the
// same simulate, observe and fit path every kind takes: the provider's
// cached fits and an optimize search's base fit. The caller accounts
// the returned SimStats.
func fitSuite(ctx context.Context, m *uarch.Machine, suite suites.Suite, opts Options) (*Fitted, SimStats, error) {
	lab, err := NewCustomLab([]*uarch.Machine{m}, []suites.Suite{suite}, opts)
	if err != nil {
		return nil, SimStats{}, err
	}
	if err := lab.SimulateContext(ctx); err != nil {
		return nil, lab.SimStats(), err
	}
	model, err := lab.Model(m.Name, suite.Name)
	if err != nil {
		return nil, lab.SimStats(), err
	}
	obs, err := lab.Observations(m.Name, suite.Name)
	if err != nil {
		return nil, lab.SimStats(), err
	}
	runs := make(map[string]*sim.Result, len(lab.runs))
	for rk, r := range lab.runs {
		runs[rk.Workload] = r
	}
	return &Fitted{Machine: m, ConfigHash: m.ConfigHash(), Suite: suite, Model: model, Obs: obs, Runs: runs},
		lab.SimStats(), nil
}

// Run executes a resolved experiment under the provider's options —
// exactly what a job of its kind and cmd/sweep run, so the report is the
// same bytes — and adds its run sourcing to the provider's counters.
// Nothing is cached: every call reads its runs back from the run store
// (or simulates them) and fits anew. A failed or cancelled run returns
// its error and counts nothing.
func (p *Provider) Run(ctx context.Context, exp *Experiment) (*Outcome, error) {
	out, err := exp.Run(ctx, p.opts, nil)
	if err != nil {
		return nil, err
	}
	p.addSimStats(out.Stats)
	return out, nil
}

func (p *Provider) addSimStats(st SimStats) {
	p.mu.Lock()
	p.stats.Sim.add(st)
	p.mu.Unlock()
}
