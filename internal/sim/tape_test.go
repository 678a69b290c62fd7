package sim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// replayMachines are the machines the replay must match a live run on:
// the stock machines, the plan-file grid (core2 with rob × mshrs), a
// latency variant of core2 and corei7 that shares their walks, and a
// prefetching core2 whose walk is its own.
func replayMachines() []*uarch.Machine {
	ms := uarch.StockMachines()
	for _, rob := range []int{48, 96, 192} {
		for _, mshrs := range []int{4, 8, 16} {
			m := uarch.CoreTwo()
			m.Name = "core2-grid"
			m.ROBSize, m.MSHRs = rob, mshrs
			m.IQSize = min(m.IQSize, rob)
			ms = append(ms, m)
		}
	}
	slow := uarch.CoreTwo()
	slow.Name, slow.MemLat, slow.FrontEndDepth = "core2-slow", 300, 20
	slowI7 := uarch.CoreI7()
	slowI7.Name, slowI7.MemLat, slowI7.L3.LatCycles, slowI7.DTLB.MissLat = "corei7-slow", 320, 45, 80
	pf := uarch.CoreTwo()
	pf.Name = "core2-pf"
	pf.Prefetch = uarch.PrefetchConfig{Enabled: true, Streams: 64, Degree: 4}
	return append(ms, slow, slowI7, pf)
}

// TestReplayMatchesRunInto: a timing replay from a tape is struct-equal
// to a live run — counters, every Truth float and MeasuredMLP — on every
// machine whose walk key the tape carries, over both suites. Each
// worker reuses its simulators and tapes across workloads, as the
// experiment runner does.
func TestReplayMatchesRunInto(t *testing.T) {
	opts := suites.Options{NumOps: 20000}
	var specs []trace.Spec
	for _, s := range []suites.Suite{suites.CPU2000Like(opts), suites.CPU2006Like(opts)} {
		for i, w := range s.Workloads {
			if testing.Short() && i%4 != 0 {
				continue
			}
			specs = append(specs, w)
		}
	}
	machines := replayMachines()
	work := make(chan trace.Spec)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			live := make([]*Simulator, len(machines))
			replay := make([]*Simulator, len(machines))
			for i, m := range machines {
				var err error
				if live[i], err = New(m); err != nil {
					t.Error(err)
					return
				}
				if replay[i], err = New(m); err != nil {
					t.Error(err)
					return
				}
			}
			tapes := map[uarch.WalkKey]*Tape{}
			for spec := range work {
				buf := trace.Materialize(spec)
				recorded := map[uarch.WalkKey]bool{}
				for i, m := range machines {
					key := m.WalkKey()
					tape := tapes[key]
					if tape == nil {
						tape = &Tape{}
						tapes[key] = tape
					}
					if !recorded[key] {
						if err := Record(m, buf, tape); err != nil {
							t.Errorf("%s on %s: record: %v", spec.Name, m.Name, err)
							continue
						}
						recorded[key] = true
					}
					var want, got Result
					if err := live[i].RunInto(&want, buf.Replay()); err != nil {
						t.Errorf("%s on %s: %v", spec.Name, m.Name, err)
						continue
					}
					if err := replay[i].Replay(&got, buf.Replay(), tape); err != nil {
						t.Errorf("%s on %s: replay: %v", spec.Name, m.Name, err)
						continue
					}
					if got != want {
						t.Errorf("%s on %s: replayed result differs from the live run:\n got %+v\nwant %+v",
							spec.Name, m.Name, got, want)
					}
				}
			}
		}()
	}
	for _, s := range specs {
		work <- s
	}
	close(work)
	wg.Wait()
}

// TestReplayRejectsForeignTapes: a tape replays only on a machine of its
// walk key and only over a trace of its length.
func TestReplayRejectsForeignTapes(t *testing.T) {
	spec := baseSpec("tape", 3)
	spec.NumOps = 5000
	buf := trace.Materialize(spec)
	var tape Tape
	if err := Record(uarch.CoreTwo(), buf, &tape); err != nil {
		t.Fatal(err)
	}
	var res Result
	i7, err := New(uarch.CoreI7())
	if err != nil {
		t.Fatal(err)
	}
	if err := i7.Replay(&res, buf.Replay(), &tape); err == nil {
		t.Error("a core2 tape replayed on corei7")
	}
	c2, err := New(uarch.CoreTwo())
	if err != nil {
		t.Fatal(err)
	}
	short := spec
	short.NumOps = 4000
	if err := c2.Replay(&res, trace.Materialize(short), &tape); err == nil {
		t.Error("a 5000-µop tape replayed over a 4000-µop trace")
	}
	if err := c2.Replay(&res, buf.Replay(), &tape); err != nil {
		t.Errorf("the matching tape was rejected: %v", err)
	}
	bad := uarch.CoreTwo()
	bad.Predictor.Kind = 99
	if err := Record(bad, buf, &Tape{}); err == nil {
		t.Error("Record accepted an unknown predictor kind")
	}
}

// TestReplayAndRunIntoShareOneSimulator: one simulator alternates
// Replay, RunInto and Replay; each Result is struct-equal to a fresh
// simulator's, and the warm alternation allocates nothing — the walker
// a live run builds stays with the simulator for the next.
func TestReplayAndRunIntoShareOneSimulator(t *testing.T) {
	m := uarch.CoreTwo()
	buf := trace.Materialize(baseSpec("alternate", 5))
	var tape Tape
	if err := Record(m, buf, &tape); err != nil {
		t.Fatal(err)
	}
	fresh := func(run func(*Simulator, *Result) error) Result {
		s, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := run(s, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	replay := func(s *Simulator, res *Result) error { return s.Replay(res, buf, &tape) }
	live := func(s *Simulator, res *Result) error { return s.RunInto(res, buf) }
	want := map[string]Result{"replay": fresh(replay), "live": fresh(live)}

	s, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	seq := []struct {
		name string
		run  func(*Simulator, *Result) error
	}{{"replay", replay}, {"live", live}, {"replay", replay}}
	var res Result
	for i, step := range seq {
		if err := step.run(s, &res); err != nil {
			t.Fatalf("run %d (%s): %v", i, step.name, err)
		}
		if res != want[step.name] {
			t.Errorf("run %d (%s) differs from a fresh simulator's:\n got %+v\nwant %+v",
				i, step.name, res, want[step.name])
		}
	}
	if n := testing.AllocsPerRun(3, func() {
		for _, step := range seq {
			if err := step.run(s, &res); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("a warm Replay/RunInto/Replay alternation made %v allocations, want 0", n)
	}
}

// TestRecordAllocatesNothingWarm: re-recording into a tape last walked
// on the same machine reuses its words and structures.
func TestRecordAllocatesNothingWarm(t *testing.T) {
	buf := trace.Materialize(baseSpec("alloc", 4))
	m := uarch.CoreTwo()
	var tape Tape
	if err := Record(m, buf, &tape); err != nil {
		t.Fatal(err)
	}
	first := append([]uint8(nil), tape.Words...)
	if n := testing.AllocsPerRun(3, func() {
		if err := Record(m, buf, &tape); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Record made %v allocations, want 0", n)
	}
	if !reflect.DeepEqual(tape.Words, first) {
		t.Error("a re-recorded tape differs from the first recording")
	}
}

// walkTrace is the fixed trace of TestWalkKeyCoversEveryInput: strided
// enough to train a prefetcher, with code and data footprints past the
// L1s and hard branches, so every walked structure sees misses.
func walkTrace() *trace.Buffer {
	spec := baseSpec("walk", 17)
	spec.NumOps = 20000
	spec.CodeFootprint = 256 << 10
	spec.DataFootprint = 64 << 20
	spec.DataLocality = 0.1
	spec.PointerChaseFrac = 0
	return trace.Materialize(spec)
}

// walkPerturbations lists changed values to try for one machine field,
// most telling first.
func walkPerturbations(v reflect.Value) []any {
	switch v.Kind() {
	case reflect.Int:
		n := v.Int()
		return []any{int(2 * n), int(n + 1), int(n / 2), int(n - 1)}
	case reflect.Float64:
		f := v.Float()
		return []any{f / 2, (f + 1) / 2, math.Nextafter(f, 2)}
	case reflect.Bool:
		return []any{!v.Bool()}
	case reflect.String:
		return []any{v.String() + "'"}
	}
	return nil
}

// TestWalkKeyCoversEveryInput changes every uarch.Machine field in turn,
// nested configurations included, enumerated by reflection: each change
// must either change the walk key or leave the fixed trace's tape —
// words and miss counts — byte-identical. A field the walk reads but
// the key leaves out fails here. Bases include a prefetching machine,
// so the prefetcher's fields are live.
func TestWalkKeyCoversEveryInput(t *testing.T) {
	buf := walkTrace()
	pf := uarch.CoreTwo()
	pf.Name = "core2-pf"
	pf.Prefetch = uarch.PrefetchConfig{Enabled: true, Streams: 64, Degree: 4}
	tapeChanges := 0
	for _, base := range append(uarch.StockMachines(), pf) {
		var want Tape
		if err := Record(base, buf, &want); err != nil {
			t.Fatal(err)
		}
		target := new(uarch.Machine)
		*target = *base
		var visit func(v reflect.Value, name string)
		visit = func(v reflect.Value, name string) {
			if v.Kind() == reflect.Struct {
				for i := 0; i < v.NumField(); i++ {
					visit(v.Field(i), name+"."+v.Type().Field(i).Name)
				}
				return
			}
			cands := walkPerturbations(v)
			if cands == nil {
				t.Fatalf("%s: no perturbation for kind %s; extend walkPerturbations", name, v.Kind())
			}
			saved := reflect.ValueOf(v.Interface())
			defer v.Set(saved)
			for _, c := range cands {
				nv := reflect.ValueOf(c).Convert(v.Type())
				if nv.Equal(saved) {
					continue
				}
				v.Set(nv)
				var got Tape
				if target.Validate() != nil || Record(target, buf, &got) != nil {
					continue
				}
				same := got.IStats == want.IStats && got.DStats == want.DStats &&
					reflect.DeepEqual(got.Words, want.Words)
				if !same {
					tapeChanges++
				}
				if target.WalkKey() == base.WalkKey() && !same {
					t.Errorf("%s: changing %s changes the walk but not the walk key", base.Name, name)
				}
				return
			}
			t.Logf("%s: no valid perturbation of %s", base.Name, name)
		}
		visit(reflect.ValueOf(target).Elem(), "Machine")
	}
	if tapeChanges == 0 {
		t.Error("no perturbation changed the tape: the trace does not exercise the walk")
	}
}

// TestResultIgnoresMachineName: a machine's Name is a label only. A live
// run and a replay on a renamed copy of each stock machine are
// struct-equal to the original's, which is what lets the experiment
// runner simulate machines that differ only by name once.
func TestResultIgnoresMachineName(t *testing.T) {
	buf := trace.Materialize(baseSpec("named", 7))
	for _, m := range uarch.StockMachines() {
		renamed := *m
		renamed.Name = m.Name + "-renamed"
		var tape Tape
		if err := Record(m, buf, &tape); err != nil {
			t.Fatal(err)
		}
		var want, live, replayed Result
		for _, c := range []struct {
			m   *uarch.Machine
			res *Result
			run func(*Simulator, *Result) error
		}{
			{m, &want, func(s *Simulator, r *Result) error { return s.RunInto(r, buf.Replay()) }},
			{&renamed, &live, func(s *Simulator, r *Result) error { return s.RunInto(r, buf.Replay()) }},
			{&renamed, &replayed, func(s *Simulator, r *Result) error { return s.Replay(r, buf.Replay(), &tape) }},
		} {
			s, err := New(c.m)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.run(s, c.res); err != nil {
				t.Fatalf("%s: %v", c.m.Name, err)
			}
		}
		if live != want || replayed != want {
			t.Errorf("%s: a renamed machine simulates differently (live equal %v, replay equal %v)",
				m.Name, live == want, replayed == want)
		}
	}
}
