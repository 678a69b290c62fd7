package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// totalRuns is the campaign size: every workload of both suites on every
// machine.
func totalRuns(l *Lab) int {
	n := 0
	for _, sname := range l.SuiteNames() {
		s, _ := l.Suite(sname)
		n += len(s.Workloads) * len(l.Machines())
	}
	return n
}

// TestSimulateStoreEquivalence checks the store is invisible to results:
// a cold run (populating the store), a warm run (served entirely from
// it), and a store-less run all produce identical Results.
func TestSimulateStoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	dir := t.TempDir()
	opts := Options{NumOps: 5000}

	cold, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldLab := NewLab(opts)
	coldLab.opts.Store = cold
	if err := coldLab.Simulate(); err != nil {
		t.Fatal(err)
	}
	want := totalRuns(coldLab)
	if st := coldLab.SimStats(); st.Hits != 0 || st.Simulated != want {
		t.Fatalf("cold stats = %+v, want 0 hits / %d simulated", st, want)
	}

	warm, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmLab := NewLab(opts)
	warmLab.opts.Store = warm
	if err := warmLab.Simulate(); err != nil {
		t.Fatal(err)
	}
	if st := warmLab.SimStats(); st.Hits != want || st.Simulated != 0 {
		t.Fatalf("warm stats = %+v, want %d hits / 0 simulated", st, want)
	}

	plainLab := NewLab(opts)
	if err := plainLab.Simulate(); err != nil {
		t.Fatal(err)
	}

	if len(coldLab.runs) != want || len(warmLab.runs) != want || len(plainLab.runs) != want {
		t.Fatalf("run counts %d/%d/%d, want %d", len(coldLab.runs), len(warmLab.runs),
			len(plainLab.runs), want)
	}
	for k, r := range coldLab.runs {
		if !reflect.DeepEqual(warmLab.runs[k], r) {
			t.Fatalf("%v: warm run differs from cold run", k)
		}
		if !reflect.DeepEqual(plainLab.runs[k], r) {
			t.Fatalf("%v: store-less run differs from cold run", k)
		}
	}
}

// TestSimulateIdempotentWithStore checks a second Simulate on the same
// Lab does nothing: runs are already resident, so neither the store nor
// the workers are consulted again.
func TestSimulateIdempotentWithStore(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := NewLab(Options{NumOps: 5000})
	l.opts.Store = store
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	before := l.SimStats()
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	if after := l.SimStats(); after != before {
		t.Errorf("re-Simulate changed stats: %+v -> %+v", before, after)
	}
}

// TestSimulateAbortsOnError checks a failing campaign reports the error
// without recording any runs (and, per the job-feed fix, without
// grinding through the remaining workloads).
func TestSimulateAbortsOnError(t *testing.T) {
	l := NewLab(Options{NumOps: 5000, Workers: 1})
	bad := uarch.CoreTwo()
	bad.ROBSize = -1 // fails uarch validation inside sim.New
	l.machines = []*uarch.Machine{bad}
	if err := l.Simulate(); err == nil {
		t.Fatal("want error from invalid machine")
	}
	if st := l.SimStats(); st.Simulated != 0 || st.Hits != 0 {
		t.Errorf("failed campaign recorded runs: %+v", st)
	}
	if len(l.runs) != 0 {
		t.Errorf("failed campaign left %d runs", len(l.runs))
	}
}

// TestSharedWalksMatchLiveRuns: machines that share a walk key replay
// one tape per workload, and their results equal a live simulation of
// each machine on its own. The grid has a walk shared by three machines
// (memlat and rob change only timing), one shared by two (a smaller
// L2), and corei7 alone.
func TestSharedWalksMatchLiveRuns(t *testing.T) {
	derive := func(name string, edit func(*uarch.Machine)) *uarch.Machine {
		m := uarch.CoreTwo()
		m.Name = name
		edit(m)
		return m
	}
	machines := []*uarch.Machine{
		uarch.CoreTwo(),
		derive("core2-slow", func(m *uarch.Machine) { m.MemLat = 300 }),
		derive("core2-rob48", func(m *uarch.Machine) { m.ROBSize = 48 }),
		derive("core2-l2", func(m *uarch.Machine) { m.L2.SizeBytes = 1 << 20 }),
		derive("core2-l2-slow", func(m *uarch.Machine) { m.L2.SizeBytes, m.MemLat = 1<<20, 300 }),
		uarch.CoreI7(),
	}
	suite := suites.CPU2000Like(suites.Options{NumOps: 5000})
	l, err := NewCustomLab(machines, []suites.Suite{suite}, Options{NumOps: 5000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	if st := l.SimStats(); st.Simulated != len(machines)*len(suite.Workloads) || st.TraceGens != len(suite.Workloads) {
		t.Errorf("stats %+v, want %d simulated and %d traces generated",
			st, len(machines)*len(suite.Workloads), len(suite.Workloads))
	}
	for _, m := range machines {
		s, err := sim.New(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range suite.Workloads {
			want, err := s.Run(trace.Materialize(w))
			if err != nil {
				t.Fatal(err)
			}
			got, err := l.Run(m.Name, suite.Name, w.Name)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Errorf("%s on %s: shared-walk result differs from a live run", w.Name, m.Name)
			}
		}
	}
}

// freshRun simulates w on a fresh simulator of m over a fresh
// materialization: the reference every batch path must reproduce.
func freshRun(t *testing.T, m *uarch.Machine, w trace.Spec) *sim.Result {
	t.Helper()
	s, err := sim.New(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(trace.Materialize(w))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestUnsharedMissesRecycleOneStore: a one-machine lab shares no trace,
// so every workload takes the unshared path, and at one worker a single
// backing store is refilled through the whole suite. Each Result must
// equal a fresh run, and every spec is generated exactly once.
func TestUnsharedMissesRecycleOneStore(t *testing.T) {
	m := uarch.CoreTwo()
	suite := suites.CPU2000Like(suites.Options{NumOps: 3000})
	l, err := NewCustomLab([]*uarch.Machine{m}, []suites.Suite{suite}, Options{NumOps: 3000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	n := len(suite.Workloads)
	if st := l.SimStats(); st.Simulated != n || st.TraceGens != n {
		t.Errorf("stats %+v, want %d simulated and %d traces generated", st, n, n)
	}
	for _, w := range suite.Workloads {
		got, err := l.Run(m.Name, suite.Name, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *freshRun(t, m, w) {
			t.Errorf("%s: unshared result differs from a fresh run", w.Name)
		}
	}
}

// TestMixedSharedAndUnsharedMisses: a store pre-filled so that some
// specs miss on one machine (unshared), some on two and some on all
// three (shared, with and without a common walk key) mixes both paths
// in one batch. Every Result must equal a fresh run, and each missed
// spec is generated exactly once.
func TestMixedSharedAndUnsharedMisses(t *testing.T) {
	rob48 := uarch.CoreTwo()
	rob48.Name = "core2-rob48"
	rob48.ROBSize = 48
	machines := []*uarch.Machine{uarch.CoreTwo(), rob48, uarch.CoreI7()}
	suite := suites.CPU2000Like(suites.Options{NumOps: 3000})
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*sim.Result{}
	misses := 0
	for i, w := range suite.Workloads {
		missing := 1 + i%3 // machines that miss this workload
		for k, m := range machines {
			r := freshRun(t, m, w)
			want[m.Name+"/"+w.Name] = r
			// Rotate which machines miss, so the shared pairs cover a
			// common walk key (core2, core2-rob48) and distinct ones.
			if (k+i)%len(machines) >= missing {
				if err := store.PutResult(runstore.SimKey(m, w), r); err != nil {
					t.Fatal(err)
				}
			}
		}
		misses += missing
	}
	l, err := NewCustomLab(machines, []suites.Suite{suite}, Options{NumOps: 3000, Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	// Every workload misses on at least one machine.
	total, specs := len(machines)*len(suite.Workloads), len(suite.Workloads)
	if st := l.SimStats(); st.Simulated != misses || st.Hits != total-misses || st.TraceGens != specs {
		t.Errorf("stats %+v, want %d simulated, %d hits and %d traces generated",
			st, misses, total-misses, specs)
	}
	for _, m := range machines {
		for _, w := range suite.Workloads {
			got, err := l.Run(m.Name, suite.Name, w.Name)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want[m.Name+"/"+w.Name] {
				t.Errorf("%s on %s: result differs from a fresh run", w.Name, m.Name)
			}
		}
	}
}

// TestSimulateAbortsOnWalkError: a walk that fails (an unknown
// predictor, which sim.New accepts and the walk rejects) fails the run
// without hanging the workers that wait for its tape.
func TestSimulateAbortsOnWalkError(t *testing.T) {
	bad := func(name string) *uarch.Machine {
		m := uarch.CoreTwo()
		m.Name = name
		m.Predictor.Kind = 99
		return m
	}
	suite := suites.CPU2000Like(suites.Options{NumOps: 2000})
	l, err := NewCustomLab([]*uarch.Machine{bad("a"), bad("b")}, []suites.Suite{suite}, Options{NumOps: 2000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err == nil {
		t.Fatal("want the walk's error")
	}
	if st := l.SimStats(); st.Simulated != 0 {
		t.Errorf("failed walk recorded runs: %+v", st)
	}
}

// storeFig2 runs the paper campaign and Figure 2 with a fresh lab on a
// fresh handle of the store in dir, returning the lab, the store handle
// and the figure.
func storeFig2(t *testing.T, dir string) (*Lab, *runstore.Store, []Fig2Panel, string) {
	t.Helper()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLab(Options{NumOps: 5000, FitStarts: 2, Store: store})
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	panels, text, err := l.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	return l, store, panels, text
}

// fitEntry returns the run-store key and file of the lab's fit of suite
// on machine.
func fitEntry(t *testing.T, l *Lab, machine, suite string) (key, path string) {
	t.Helper()
	obs, err := l.Observations(machine, suite)
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.Machine(machine)
	if err != nil {
		t.Fatal(err)
	}
	key = runstore.FitKey(m.Params(), obs, core.FitOptions{Starts: l.opts.FitStarts, Seed: l.opts.Seed})
	return key, filepath.Join(l.opts.Store.Dir(), key[:2], key+".json")
}

// TestWarmStoreContract: a fresh lab on a store a cold campaign filled
// reproduces Figure 2 byte for byte from store reads alone — every run
// and all six fits are hits, and nothing is simulated or written.
func TestWarmStoreContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	dir := t.TempDir()
	cold, coldStore, _, want := storeFig2(t, dir)
	fits := len(cold.Machines()) * len(cold.SuiteNames())
	if st := coldStore.Stats(); st.Puts != int64(totalRuns(cold)+fits) {
		t.Errorf("cold store stats = %+v, want %d puts (runs and fits)", st, totalRuns(cold)+fits)
	}

	warm, warmStore, _, got := storeFig2(t, dir)
	if got != want {
		t.Errorf("warm Figure 2 differs from the cold one:\n%s\nwant:\n%s", got, want)
	}
	if st := warm.SimStats(); st.Simulated != 0 {
		t.Errorf("warm lab simulated %d runs", st.Simulated)
	}
	if st := warmStore.Stats(); st.Puts != 0 || st.Misses != 0 || st.Hits != int64(totalRuns(warm)+fits) {
		t.Errorf("warm store stats = %+v, want %d hits, 0 misses, 0 puts", st, totalRuns(warm)+fits)
	}
}

// TestWarmLookupDeterministicAndCancelSafe: the store lookup runs on
// the worker pool, yet a warm lab records and reports exactly what a
// serial one does. At Workers 1 and 4 a fresh lab on a store a cold
// campaign filled draws the same Figure 2, reports every run as a hit
// in pendingJobs order, and leaves the same store stats. A context
// cancelled before SimulateContext reads, records and writes nothing,
// warm or cold.
func TestWarmLookupDeterministicAndCancelSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	dir := t.TempDir()
	_, _, _, coldText := storeFig2(t, dir)

	type event struct {
		run RunKey
		hit bool
	}
	newLab := func(storeDir string, workers int) (*Lab, *runstore.Store, *[]event) {
		store, err := runstore.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		var events []event
		l := NewLab(Options{NumOps: 5000, FitStarts: 2, Workers: workers, Store: store,
			Progress: func(run RunKey, hit bool) { events = append(events, event{run, hit}) }})
		return l, store, &events
	}

	var firstEvents []event
	var firstStats runstore.Stats
	for _, workers := range []int{1, 4} {
		l, store, events := newLab(dir, workers)
		var want []event
		for _, j := range l.pendingJobs() {
			want = append(want, event{j.run, true})
		}
		if err := l.Simulate(); err != nil {
			t.Fatal(err)
		}
		_, text, err := l.Fig2()
		if err != nil {
			t.Fatal(err)
		}
		if text != coldText {
			t.Errorf("workers=%d: warm Figure 2 differs from the cold one:\n%s\nwant:\n%s", workers, text, coldText)
		}
		if !reflect.DeepEqual(*events, want) {
			t.Errorf("workers=%d: progress is not every run as a hit in pendingJobs order", workers)
		}
		st := store.Stats()
		if st.Misses != 0 || st.Puts != 0 {
			t.Errorf("workers=%d: store stats = %+v, want 0 misses and 0 puts", workers, st)
		}
		if firstEvents == nil {
			firstEvents, firstStats = *events, st
			continue
		}
		if !reflect.DeepEqual(*events, firstEvents) || st != firstStats {
			t.Errorf("workers=%d: progress or store stats %+v differ from workers=1's %+v", workers, st, firstStats)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, storeDir := range []string{dir, t.TempDir()} {
		for _, workers := range []int{1, 4} {
			l, store, events := newLab(storeDir, workers)
			if err := l.SimulateContext(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: cancelled SimulateContext returned %v, want context.Canceled", workers, err)
			}
			if len(l.runs) != 0 || l.SimStats() != (SimStats{}) || len(*events) != 0 {
				t.Errorf("workers=%d: a cancelled lookup recorded %d runs, stats %+v, %d progress calls",
					workers, len(l.runs), l.SimStats(), len(*events))
			}
			if st := store.Stats(); st != (runstore.Stats{}) {
				t.Errorf("workers=%d: a cancelled lookup touched the store: %+v", workers, st)
			}
		}
		if storeDir != dir {
			if entries, err := os.ReadDir(storeDir); err != nil || len(entries) != 0 {
				t.Errorf("a cancelled cold lab wrote %d store entries (err %v)", len(entries), err)
			}
		}
	}
}

// TestCorruptFitEntryRefits: a fit entry that is truncated, is not JSON,
// or holds something other than the coefficients is a miss; the lab
// refits, rewrites the entry byte for byte, and draws the same Figure 2.
func TestCorruptFitEntryRefits(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	dir := t.TempDir()
	cold, _, _, want := storeFig2(t, dir)
	key, path := fitEntry(t, cold, "core2", "cpu2006")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spoil, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func() error{
		"truncated":  func() error { return os.WriteFile(path, good[:len(good)/2], 0o644) },
		"not JSON":   func() error { return os.WriteFile(path, []byte("not json"), 0o644) },
		"not params": func() error { return spoil.Put(key, map[string]string{"B1": "x"}) },
	} {
		if err := corrupt(); err != nil {
			t.Fatal(err)
		}
		warm, st, _, got := storeFig2(t, dir)
		if got != want {
			t.Errorf("%s: Figure 2 after the refit differs from the cold one", name)
		}
		if s := st.Stats(); s.Misses != 1 || s.Puts != 1 || warm.SimStats().Simulated != 0 {
			t.Errorf("%s: store stats %+v, sims %+v; want exactly the one fit refitted and rewritten",
				name, s, warm.SimStats())
		}
		if healed, err := os.ReadFile(path); err != nil || string(healed) != string(good) {
			t.Errorf("%s: rewritten entry differs from the original (err %v)", name, err)
		}
	}
}

// TestResetModelsBypassesFitStore: after ResetModels a lab re-runs the
// regression without touching fit entries — the store-backed benchmarks
// reset every iteration to time six real fits — and gets the same
// panels the stored fits gave.
func TestResetModelsBypassesFitStore(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	dir := t.TempDir()
	storeFig2(t, dir)
	l, store, want, _ := storeFig2(t, dir)
	before := store.Stats()
	l.ResetModels()
	got, _, err := l.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if after := store.Stats(); after != before {
		t.Errorf("Fig2 after ResetModels used the store: %+v -> %+v", before, after)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("refitted panels differ from the stored fits' panels")
	}
}

// storeAblations runs the core2 ablation study with a fresh lab on a
// fresh handle of the store in dir.
func storeAblations(t *testing.T, dir string) (*Lab, *runstore.Store, []AblationResult, string) {
	t.Helper()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 5000, FitStarts: 2, Store: store}
	var suiteList []suites.Suite
	for _, name := range []string{"cpu2000", "cpu2006"} {
		s, err := suites.ByName(name, suites.Options{NumOps: opts.NumOps})
		if err != nil {
			t.Fatal(err)
		}
		suiteList = append(suiteList, s)
	}
	l, err := NewCustomLab([]*uarch.Machine{uarch.CoreTwo()}, suiteList, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	res, text, err := l.Ablations("core2")
	if err != nil {
		t.Fatal(err)
	}
	return l, store, res, text
}

// TestWarmStoreAblations: the ablation study fits the full model and its
// four variants through the run store, so a fresh lab on a warm store
// reads all five fits, writes nothing, and reproduces every error bit
// for bit — which also pins that a stored variant is rebuilt with its
// ablated structure, not as the full model.
func TestWarmStoreAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("two ablation studies are slow")
	}
	dir := t.TempDir()
	const fits = 5
	cold, coldStore, want, wantText := storeAblations(t, dir)
	if st := coldStore.Stats(); st.Puts != int64(totalRuns(cold)+fits) {
		t.Errorf("cold store stats = %+v, want %d puts (runs and fits)", st, totalRuns(cold)+fits)
	}
	warm, warmStore, got, gotText := storeAblations(t, dir)
	if !reflect.DeepEqual(got, want) || gotText != wantText {
		t.Errorf("warm ablations differ from the cold ones:\n%s\nwant:\n%s", gotText, wantText)
	}
	if st := warmStore.Stats(); st.Puts != 0 || st.Misses != 0 || st.Hits != int64(totalRuns(warm)+fits) {
		t.Errorf("warm store stats = %+v, want %d hits, 0 misses, 0 puts", st, totalRuns(warm)+fits)
	}
}
