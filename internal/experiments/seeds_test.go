package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
	"repro/internal/stats"
	"repro/internal/suites"
)

func TestParseSeedsSpecStrict(t *testing.T) {
	spec, err := ParseSeedsSpec([]byte(`{"base": {"name": "core2"}, "suite": "cpu2000", "count": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Base == nil || spec.Base.Name != "core2" || spec.Count != 3 {
		t.Errorf("parsed spec = %+v", spec)
	}
	for name, doc := range map[string]string{
		"unknown field":   `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 3, "ops": 500}`,
		"trailing data":   `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 3} {}`,
		"trailing brace":  `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 3}}`,
		"trailing square": `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 3}]`,
		"not JSON":        `seeds!`,
	} {
		if _, err := ParseSeedsSpec([]byte(doc)); err == nil {
			t.Errorf("%s should fail to parse", name)
		}
	}
}

func TestSeedsSpecValidation(t *testing.T) {
	base := &MachineSpec{Name: "core2"}
	camp := &Campaign{Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000"}}
	cases := []struct {
		name    string
		spec    SeedsSpec
		wantErr string
	}{
		{"no subject", SeedsSpec{Count: 2}, "base+suite or a campaign"},
		{"base and campaign", SeedsSpec{Base: base, Suite: "cpu2000", Campaign: camp, Count: 2}, "not both"},
		{"base without suite", SeedsSpec{Base: base, Count: 2}, "need a suite"},
		{"unknown machine", SeedsSpec{Base: &MachineSpec{Name: "core9"}, Suite: "cpu2000", Count: 2}, "unknown machine"},
		{"campaign with ops", SeedsSpec{Campaign: &Campaign{Machines: camp.Machines,
			Suites: camp.Suites, NumOps: 500}, Count: 2}, "must not set ops"},
		{"campaign with seed", SeedsSpec{Campaign: &Campaign{Machines: camp.Machines,
			Suites: camp.Suites, Seed: 7}, Count: 2}, "must not set ops"},
		{"campaign without machines", SeedsSpec{Campaign: &Campaign{Suites: camp.Suites}, Count: 2}, "no machines"},
		{"campaign without suites", SeedsSpec{Campaign: &Campaign{Machines: camp.Machines}, Count: 2}, "no suites"},
		{"duplicate suite", SeedsSpec{Campaign: &Campaign{Machines: camp.Machines,
			Suites: []string{"cpu2000", "cpu2000"}}, Count: 2}, "twice"},
		{"seeds and count", SeedsSpec{Base: base, Suite: "cpu2000", Seeds: []uint64{1}, Count: 2}, "not both"},
		{"no replications", SeedsSpec{Base: base, Suite: "cpu2000"}, "seed list or a count"},
		{"seed zero", SeedsSpec{Base: base, Suite: "cpu2000", Seeds: []uint64{1, 0}}, "reserved"},
		{"duplicate seed", SeedsSpec{Base: base, Suite: "cpu2000", Seeds: []uint64{3, 3}}, "listed twice"},
		{"negative count", SeedsSpec{Base: base, Suite: "cpu2000", Count: -1}, "positive"},
		{"count over limit", SeedsSpec{Base: base, Suite: "cpu2000", Count: MaxSeeds + 1}, "exceed"},
		{"count far over limit", SeedsSpec{Base: base, Suite: "cpu2000", Count: 1 << 30}, "exceed"},
		{"list over limit", SeedsSpec{Base: base, Suite: "cpu2000",
			Seeds: func() []uint64 {
				xs := make([]uint64, MaxSeeds+1)
				for i := range xs {
					xs[i] = uint64(i + 1)
				}
				return xs
			}()}, "exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Resolve(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Resolve error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}

	// An unknown suite yields the registry sentinel the serving layer
	// classifies into its structured error code.
	_, err := SeedsSpec{Base: base, Suite: "cpu2017", Count: 2}.Resolve()
	if !errors.Is(err, suites.ErrUnknownSuite) {
		t.Errorf("unknown suite error = %v, want errors.Is(ErrUnknownSuite)", err)
	}

	// A count expands to seeds 1..N; run accounting covers the grid.
	s, err := SeedsSpec{Base: base, Suite: "cpu2000", Count: 3}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.SeedList, []uint64{1, 2, 3}) {
		t.Errorf("SeedList = %v, want [1 2 3]", s.SeedList)
	}
	if s.TotalRuns() != 3*48 {
		t.Errorf("TotalRuns = %d, want 144 (3 seeds × 48 cpu2000 workloads)", s.TotalRuns())
	}
}

// TestSeedsSingleSeedMatchesCampaign pins the seed mapping: a sweep over
// the single seed {1} is the canonical single-seed campaign, per-float
// bit-identical — same measured CPIs, same model error, same fitted
// coefficients — and its degenerate statistics stay finite (no interval,
// zero spread).
func TestSeedsSingleSeedMatchesCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	sn := tinySuite(t)
	opts := Options{NumOps: 2000, FitStarts: 2}
	s, err := SeedsSpec{Base: &MachineSpec{Name: "core2"}, Suite: sn, Seeds: []uint64{1}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSeeds(context.Background(), s, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	cell := res.Cells[0]

	// The reference: the existing campaign path with the same options.
	lab, err := NewCampaignLab(Campaign{Machines: []MachineSpec{{Name: "core2"}},
		Suites: []string{sn}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Simulate(); err != nil {
		t.Fatal(err)
	}
	model, err := lab.Model("core2", sn)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := lab.Observations("core2", sn)
	if err != nil {
		t.Fatal(err)
	}
	var cpis, errs []float64
	for i := range obs {
		cpis = append(cpis, obs[i].MeasuredCPI)
		errs = append(errs, stats.RelErr(model.PredictCPI(obs[i].Feat), obs[i].MeasuredCPI))
	}
	wantCPI, wantMARE := stats.Mean(cpis), stats.Mean(errs)

	if math.Float64bits(cell.CPI.PerSeed[0]) != math.Float64bits(wantCPI) ||
		math.Float64bits(cell.CPI.Mean) != math.Float64bits(wantCPI) {
		t.Errorf("seed-1 CPI %v, campaign %v (bit mismatch)", cell.CPI.Mean, wantCPI)
	}
	if math.Float64bits(cell.MARE.Mean) != math.Float64bits(wantMARE) {
		t.Errorf("seed-1 MARE %v, campaign %v (bit mismatch)", cell.MARE.Mean, wantMARE)
	}
	for i, want := range model.P.Slice() {
		if math.Float64bits(cell.Coeffs[i].Mean) != math.Float64bits(want) {
			t.Errorf("coefficient %s = %v, campaign fit %v (bit mismatch)",
				cell.Coeffs[i].Name, cell.Coeffs[i].Mean, want)
		}
		if cell.Coeffs[i].CV != 0 {
			t.Errorf("coefficient %s CV = %v, want 0 for a single seed", cell.Coeffs[i].Name, cell.Coeffs[i].CV)
		}
	}

	// One replication: no interval exists, bounds collapse to the mean,
	// spread is zero — every field finite and JSON-safe.
	if cell.CPI.SampleStd != 0 || cell.MARE.SampleStd != 0 || cell.MaxCoeffCV != 0 {
		t.Errorf("single-seed spread nonzero: %+v", cell)
	}
	if cell.CPI.CI95Lo != cell.CPI.Mean || cell.CPI.CI95Hi != cell.CPI.Mean {
		t.Errorf("single-seed CI [%v, %v], want collapsed to mean %v",
			cell.CPI.CI95Lo, cell.CPI.CI95Hi, cell.CPI.Mean)
	}
}

// TestRunSeedsWarmRerun is the store-economics contract: distinct seeds
// never collide in the run store (the cold sweep simulates every run),
// and a repeated sweep is answered entirely from the store — zero
// simulations, zero regenerated traces, identical floats.
func TestRunSeedsWarmRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	sn := tinySuite(t)
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	s, err := SeedsSpec{Base: &MachineSpec{Name: "core2"}, Suite: sn, Count: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	cold, err := RunSeeds(context.Background(), s, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := s.TotalRuns()
	if cold.Sims.Simulated != total || cold.Sims.Hits != 0 {
		t.Errorf("cold sweep stats %+v, want all %d runs simulated (seeds must not collide in the store)",
			cold.Sims, total)
	}
	cell := cold.Cells[0]
	if math.Float64bits(cell.CPI.PerSeed[0]) == math.Float64bits(cell.CPI.PerSeed[1]) {
		t.Error("seeds 1 and 2 produced bit-identical CPI; the seed base is not reaching the generators")
	}

	warm, err := RunSeeds(context.Background(), s, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Sims.Simulated != 0 || warm.Sims.TraceGens != 0 {
		t.Errorf("warm rerun sims = %+v, want zero simulated and zero trace generations", warm.Sims)
	}
	if warm.Sims.Hits != total {
		t.Errorf("warm rerun hit %d runs, want %d", warm.Sims.Hits, total)
	}
	if !reflect.DeepEqual(cold.Cells, warm.Cells) {
		t.Error("warm rerun diverged from the cold sweep")
	}
}

// TestProviderSeedsMatchesRunSeeds: a seeds experiment run through the
// provider (the synchronous endpoint path) emits the same report
// per-float as the blocking path, adds exactly its own sourcing to the
// provider's counters, and observes cancellation.
func TestProviderSeedsMatchesRunSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	sn := tinySuite(t)
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	spec := SeedsSpec{Base: &MachineSpec{Name: "core2"}, Suite: sn, Count: 2}
	s, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var done []int
	blocking, err := RunSeeds(context.Background(), s, opts, func(d int) { done = append(done, d) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(done, []int{1, 2}) {
		t.Errorf("onSeed calls = %v, want [1 2]", done)
	}

	prov := NewProvider(opts)
	exp, err := ResolveJob(JobSpec{Kind: JobKindSeeds, Seeds: &spec}, prov.Opts())
	if err != nil {
		t.Fatal(err)
	}
	out, err := prov.Run(context.Background(), exp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Report.(*SeedsReport).Cells, blocking.Cells) {
		t.Error("provider sweep diverged from the blocking sweep")
	}
	// The blocking sweep warmed the run store, so the provider's run is
	// all hits, and that sourcing is all its counters hold.
	if out.Stats.Simulated != 0 || out.Stats.TraceGens != 0 || out.Stats.Hits != s.TotalRuns() {
		t.Errorf("provider sweep stats %+v, want %d store hits and nothing simulated",
			out.Stats, s.TotalRuns())
	}
	if st := prov.Stats(); st.Sim != out.Stats {
		t.Errorf("provider counters %+v, want the run's sourcing %+v", st.Sim, out.Stats)
	}

	// Cancellation is observed before any work on both paths, and a
	// cancelled run counts nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prov.Run(ctx, exp); !errors.Is(err, context.Canceled) {
		t.Errorf("provider sweep on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := RunSeeds(ctx, s, opts, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("blocking sweep on cancelled ctx = %v, want context.Canceled", err)
	}
	if st := prov.Stats(); st.Sim != out.Stats {
		t.Errorf("cancelled run changed the provider counters to %+v", st.Sim)
	}
}

// sequentialSeedsReference is the pre-fan-out RunSeeds algorithm — one
// lab per seed, simulated and scored in SeedList order — kept as the
// behavioral reference for the combined simulation batch.
func sequentialSeedsReference(t *testing.T, s *Seeds, opts Options) *SeedsReport {
	t.Helper()
	opts = opts.withDefaults()
	var perSeed [][]CampaignModelResult
	var st SimStats
	for _, seed := range s.SeedList {
		sopts := seedOptions(opts, seed)
		suiteList := make([]suites.Suite, 0, len(s.Suites))
		for _, name := range s.Suites {
			suite, err := suites.ByName(name, suites.Options{NumOps: sopts.NumOps, SeedBase: sopts.SeedBase})
			if err != nil {
				t.Fatal(err)
			}
			suiteList = append(suiteList, suite)
		}
		lab, err := NewCustomLab(s.Machines, suiteList, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.Simulate(); err != nil {
			t.Fatal(err)
		}
		st.Hits += lab.SimStats().Hits
		st.Simulated += lab.SimStats().Simulated
		st.TraceGens += lab.SimStats().TraceGens
		scores, err := scoreLab(context.Background(), lab)
		if err != nil {
			t.Fatal(err)
		}
		perSeed = append(perSeed, scores)
	}
	return seedsReport(s, opts, perSeed, st)
}

// TestRunSeedsParallelMatchesSequential pins the combined-batch
// contract: the sweep — all seeds' runs in one worker-pool batch, each
// recorded into its own seed's lab, then fitted seed by seed — must
// emit a report per-float identical to simulating each seed's lab on
// its own, with the same sourcing totals and cumulative onSeed calls,
// at any worker count.
func TestRunSeedsParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	sn := tinySuite(t)
	opts := Options{NumOps: 2000, FitStarts: 2}
	s, err := SeedsSpec{Base: &MachineSpec{Name: "core2"}, Suite: sn, Count: 3}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialSeedsReference(t, s, opts)
	for _, workers := range []int{1, 8} {
		wopts := opts
		wopts.Workers = workers
		var done []int
		got, err := RunSeeds(context.Background(), s, wopts, func(d int) { done = append(done, d) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cells, want.Cells) {
			t.Errorf("workers=%d: concurrent sweep diverged from the sequential reference", workers)
		}
		if !reflect.DeepEqual(done, []int{1, 2, 3}) {
			t.Errorf("workers=%d: onSeed calls = %v, want cumulative [1 2 3]", workers, done)
		}
		if got.Sims != want.Sims {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, got.Sims, want.Sims)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: wire report diverged", workers)
		}
	}
}

// TestRunSeedsCancelMidFlight mirrors the plan/optimize cancellation
// contracts directly on the concurrent sweep (the jobs-engine flavour
// lives in jobs_test.go): cancelling mid-simulation stops dispatch,
// returns ctx.Err(), and leaves the store warm-consistent — a follow-up
// sweep hits everything the cancelled one persisted and completes the
// replications. CI runs this under -race, so it doubles as the race
// check on the combined multi-seed batch.
func TestRunSeedsCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	sn := tinySuite(t)
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := SeedsSpec{Base: &MachineSpec{Name: "core2"}, Suite: sn, Count: 3}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var simulated int
	opts := Options{NumOps: 20000, FitStarts: 2, Workers: 2, Store: store,
		Progress: func(run RunKey, hit bool) {
			if !hit {
				simulated++
				if simulated == 3 {
					cancel() // mid-flight: later runs are still pending
				}
			}
		}}
	_, err = RunSeeds(ctx, s, opts, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}
	persisted := simulated
	total := s.TotalRuns()
	if persisted >= total {
		t.Fatalf("cancelled sweep completed all %d runs; cancellation did nothing", total)
	}

	opts.Progress = nil
	res, err := RunSeeds(context.Background(), s, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims.Hits+res.Sims.Simulated != total {
		t.Errorf("follow-up covered %d runs, want %d", res.Sims.Hits+res.Sims.Simulated, total)
	}
	if res.Sims.Hits < persisted {
		t.Errorf("follow-up hit %d runs, want at least the %d the cancelled sweep simulated",
			res.Sims.Hits, persisted)
	}
}
