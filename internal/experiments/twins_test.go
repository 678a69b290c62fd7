package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// TestDuplicateMachinesShareOneRun: in a core2 rob {48,96} × mshrs
// {8,16} plan, the cell at the base's own values is core2 under another
// name. A cold, store-backed run of the plan's machines simulates each
// workload once for the pair: both record the same *sim.Result, which
// equals a separate live run of each. The pair still counts as two
// simulated runs, reports two progress calls and writes both keys, each
// entry byte for byte what storing its own live run writes.
func TestDuplicateMachinesShareOneRun(t *testing.T) {
	sn := tinySuite(t)
	base := uarch.CoreTwo()
	plan, err := NewPlan(base, []PlanAxis{
		{Param: "rob", Values: []int{48, 96}},
		{Param: "mshrs", Values: []int{8, 16}},
	}, sn)
	if err != nil {
		t.Fatal(err)
	}
	var twin *uarch.Machine
	for _, m := range plan.Machines[1:] {
		if m.Name == "core2-rob96-mshrs8" {
			twin = m
		}
	}
	if twin == nil {
		t.Fatal("plan has no core2-rob96-mshrs8 cell")
	}
	renamed := *twin
	renamed.Name = base.Name
	if renamed != *base {
		t.Fatal("core2-rob96-mshrs8 differs from core2 apart from its name")
	}

	suite, err := suites.ByName(sn, suites.Options{NumOps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	opts := Options{NumOps: 2000, Workers: 2, Store: store, Progress: func(RunKey, bool) { progress++ }}
	l, err := NewCustomLab(plan.Machines, []suites.Suite{suite}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	jobs := len(plan.Machines) * len(suite.Workloads)
	if st := l.SimStats(); st.Simulated != jobs || st.Hits != 0 || st.TraceGens != len(suite.Workloads) {
		t.Errorf("stats %+v, want %d simulated and %d traces generated", st, jobs, len(suite.Workloads))
	}
	if progress != jobs {
		t.Errorf("%d progress calls, want one per job (%d)", progress, jobs)
	}

	refStore, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry := func(root, key string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(root, key[:2], key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, w := range suite.Workloads {
		runs := map[*uarch.Machine]*sim.Result{}
		for _, m := range []*uarch.Machine{base, twin} {
			got, err := l.Run(m.Name, suite.Name, w.Name)
			if err != nil {
				t.Fatal(err)
			}
			runs[m] = got
			want := freshRun(t, m, w)
			if *got != *want {
				t.Errorf("%s on %s: result differs from a live run", w.Name, m.Name)
			}
			key := runstore.SimKey(m, w)
			if err := refStore.PutResult(key, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(entry(dir, key), entry(refStore.Dir(), key)) {
				t.Errorf("%s on %s: stored entry differs from storing a live run", w.Name, m.Name)
			}
		}
		if runs[base] != runs[twin] {
			t.Errorf("%s: %s and %s were simulated separately", w.Name, base.Name, twin.Name)
		}
	}
}
