package experiments

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/runstore"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

func testMachine(t *testing.T, name string) *uarch.Machine {
	t.Helper()
	m, err := uarch.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProviderFitMatchesLabModel(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	opts := Options{NumOps: 3000, FitStarts: 2}
	m := testMachine(t, "core2")

	prov := NewProvider(opts)
	f, err := prov.Fitted(m, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	if f.ConfigHash != m.ConfigHash() {
		t.Errorf("Fitted.ConfigHash %s, want the machine's %s", f.ConfigHash, m.ConfigHash())
	}

	suite, err := suites.ByName("cpu2000", suites.Options{NumOps: opts.NumOps})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewCustomLab([]*uarch.Machine{m}, []suites.Suite{suite}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	lm, err := l.Model("core2", "cpu2000")
	if err != nil {
		t.Fatal(err)
	}

	// The provider fits through a one-machine Lab, so identical inputs
	// must yield bit-identical parameters.
	if f.Model.P != lm.P {
		t.Errorf("provider fit diverged from lab fit:\n  provider %+v\n  lab      %+v", f.Model.P, lm.P)
	}
	for i := range f.Obs {
		if math.Float64bits(f.Model.PredictCPI(f.Obs[i].Feat)) !=
			math.Float64bits(lm.PredictCPI(f.Obs[i].Feat)) {
			t.Errorf("prediction for %s differs between provider and lab", f.Obs[i].Name)
		}
	}
}

func TestProviderSingleflightDedupes(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	prov := NewProvider(Options{NumOps: 2000, FitStarts: 2})
	m := testMachine(t, "core2")

	const callers = 8
	results := make([]*Fitted, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := prov.Fitted(m, "cpu2000")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = f
		}(i)
	}
	wg.Wait()

	st := prov.Stats()
	if st.Fits != 1 {
		t.Errorf("%d concurrent requests fitted %d models, want exactly 1", callers, st.Fits)
	}
	if st.ModelHits != callers-1 {
		t.Errorf("model hits = %d, want %d", st.ModelHits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different *Fitted instance", i)
		}
	}

	// A later call is a pure cache hit.
	if _, err := prov.Fitted(m, "cpu2000"); err != nil {
		t.Fatal(err)
	}
	st = prov.Stats()
	if st.Fits != 1 || st.ModelHits != callers {
		t.Errorf("after warm call: fits=%d hits=%d, want 1/%d", st.Fits, st.ModelHits, callers)
	}
	if prov.CachedModels() != 1 {
		t.Errorf("cached models = %d, want 1", prov.CachedModels())
	}
}

func TestProviderDistinctConfigsFitSeparately(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	prov := NewProvider(Options{NumOps: 2000, FitStarts: 2})
	m := testMachine(t, "core2")
	if _, err := prov.Fitted(m, "cpu2000"); err != nil {
		t.Fatal(err)
	}

	// A different machine configuration is a different model.
	d, err := uarch.Derive(m, "core2-rob48", uarch.Overrides{ROBSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prov.Fitted(d, "cpu2000"); err != nil {
		t.Fatal(err)
	}
	if st := prov.Stats(); st.Fits != 2 {
		t.Errorf("distinct configs should fit separately: fits=%d, want 2", st.Fits)
	}
}

func TestProviderWarmStoreDispatchesZeroSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	m := testMachine(t, "core2")

	cold := NewProvider(opts)
	if _, err := cold.Fitted(m, "cpu2000"); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Sim.Simulated == 0 {
		t.Fatal("cold provider should have simulated")
	}

	warmStore, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewProvider(Options{NumOps: 2000, FitStarts: 2, Store: warmStore})
	wf, err := warm.Fitted(m, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Sim.Simulated != 0 {
		t.Errorf("warm provider dispatched %d simulations, want 0", st.Sim.Simulated)
	}
	if st.Sim.Hits == 0 {
		t.Error("warm provider should have served runs from the store")
	}

	// Warm-started fits are bit-identical to cold ones.
	cf, _ := cold.Fitted(m, "cpu2000")
	if wf.Model.P != cf.Model.P {
		t.Errorf("warm fit diverged from cold fit:\n  warm %+v\n  cold %+v", wf.Model.P, cf.Model.P)
	}
}

// TestProviderSweepMatchesRunSweep: a sweep run through the provider
// (the synchronous endpoint path) is bit-identical to the standalone
// run (the job and cmd/sweep path), and its sourcing lands in the
// provider's counters.
func TestProviderSweepMatchesRunSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	opts := Options{NumOps: 2000, FitStarts: 2}
	spec := &SweepSpec{Base: MachineSpec{Name: "core2"}, Param: "rob", Values: []int{48, 96}, Suite: "cpu2000"}
	plan, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	want, err := RunPlan(plan, opts)
	if err != nil {
		t.Fatal(err)
	}

	prov := NewProvider(opts)
	exp, err := ResolveJob(JobSpec{Kind: JobKindSweep, Sweep: spec}, prov.Opts())
	if err != nil {
		t.Fatal(err)
	}
	out, err := prov.Run(context.Background(), exp)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Report.(*SweepReport)

	if len(got.Points) != len(want.Points) {
		t.Fatalf("point count %d, want %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		g, w := got.Points[i], want.Points[i]
		if g.Value != w.Values[0] || g.Machine != w.Machine {
			t.Errorf("point %d identity mismatch: %v vs %v", i, g, w)
		}
		if math.Float64bits(g.SimCPI) != math.Float64bits(w.SimCPI) ||
			math.Float64bits(g.ModelCPI) != math.Float64bits(w.ModelCPI) {
			t.Errorf("point %d CPIs diverged: sim %v vs %v, model %v vs %v",
				i, g.SimCPI, w.SimCPI, g.ModelCPI, w.ModelCPI)
		}
	}
	if st := prov.Stats(); st.Sim != want.Stats || st.Fits != 0 {
		t.Errorf("provider stats %+v, want the sweep's sourcing %+v and no cached fit", st, want.Stats)
	}
}

func TestProviderErrorsAreNotCached(t *testing.T) {
	prov := NewProvider(Options{NumOps: 1000, FitStarts: 2})
	m := testMachine(t, "core2")
	if _, err := prov.Fitted(m, "no-such-suite"); err == nil {
		t.Fatal("unknown suite should fail")
	}
	if prov.CachedModels() != 0 {
		t.Errorf("failed fit left %d cache entries, want 0", prov.CachedModels())
	}
	if st := prov.Stats(); st.Fits != 0 {
		t.Errorf("failed fit counted as a fit (fits=%d)", st.Fits)
	}
}

// TestProviderSuiteResolvesOnce: Suite instantiates a name under the
// provider's NumOps and SeedBase, keeps a success — a file-backed
// suite's traces are not read again — and retries a failure.
func TestProviderSuiteResolvesOnce(t *testing.T) {
	prov := NewProvider(Options{NumOps: 700, SeedBase: 3})
	s, err := prov.Suite("cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	want, err := suites.ByName("cpu2000", suites.Options{NumOps: 700, SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, want) {
		t.Error("Suite differs from suites.ByName under the provider's options")
	}

	dir := t.TempDir()
	name := suites.FilePrefix + dir
	files := NewProvider(Options{NumOps: 700})
	if _, err := files.Suite(name); err == nil {
		t.Fatal("an empty trace directory resolved")
	}
	path := filepath.Join(dir, want.Workloads[0].Name+trace.FileExt)
	if err := trace.WriteFile(path, trace.Materialize(want.Workloads[0])); err != nil {
		t.Fatal(err)
	}
	first, err := files.Suite(name)
	if err != nil {
		t.Fatalf("a failed resolution was kept: %v", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	again, err := files.Suite(name)
	if err != nil || !reflect.DeepEqual(again, first) {
		t.Errorf("second resolution re-read the directory: %v", err)
	}
}

// TestProviderSweepValidatesBeforeFitting: a bogus sweep is refused
// before any suite is simulated or fitted.
func TestProviderSweepValidatesBeforeFitting(t *testing.T) {
	prov := NewProvider(Options{NumOps: 1000, FitStarts: 2})
	sweep := func(param string, values []int) error {
		exp, err := ResolveJob(JobSpec{Kind: JobKindSweep, Sweep: &SweepSpec{
			Base: MachineSpec{Name: "core2"}, Param: param, Values: values, Suite: "cpu2000"}}, prov.Opts())
		if err == nil {
			_, err = prov.Run(context.Background(), exp)
		}
		return err
	}
	if err := sweep("bogus", []int{64}); err == nil {
		t.Fatal("unknown sweep param should fail")
	}
	if err := sweep("rob", []int{0}); err == nil {
		t.Fatal("non-positive sweep value should fail")
	}
	if err := sweep("rob", nil); err == nil {
		t.Fatal("empty sweep values should fail")
	}
	if st := prov.Stats(); st.Fits != 0 || st.Sim.Simulated != 0 {
		t.Errorf("invalid sweeps spent work: fits=%d simulated=%d, want 0/0",
			st.Fits, st.Sim.Simulated)
	}
}

// TestProviderFailedFitReleasesWaiters: concurrent requests for a key
// whose fit fails must all return the error — nobody hangs on the done
// channel, nothing is cached, and joining a failure is not a hit.
func TestProviderFailedFitReleasesWaiters(t *testing.T) {
	prov := NewProvider(Options{NumOps: 1000, FitStarts: 2})
	m := testMachine(t, "core2")
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := prov.Fitted(m, "no-such-suite"); err == nil {
				t.Error("unknown suite should fail for every caller")
			}
		}()
	}
	wg.Wait()
	st := prov.Stats()
	if st.Fits != 0 || st.ModelHits != 0 {
		t.Errorf("failure run counted fits=%d hits=%d, want 0/0", st.Fits, st.ModelHits)
	}
	if prov.CachedModels() != 0 {
		t.Errorf("failure left %d cache entries, want 0", prov.CachedModels())
	}
}
