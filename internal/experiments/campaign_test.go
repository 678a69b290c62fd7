package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

func TestParseCampaign(t *testing.T) {
	c, err := ParseCampaign([]byte(`{
		"machines": [
			{"name": "corei7"},
			{"name": "i7-rob256", "base": "corei7", "overrides": {"robSize": 256, "l2": {"sizeBytes": 524288}}}
		],
		"suites": ["cpu2006"],
		"ops": 12345,
		"fitStarts": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != 2 || c.Machines[1].Overrides.ROBSize != 256 ||
		c.Machines[1].Overrides.L2.SizeBytes != 512<<10 {
		t.Errorf("parsed campaign wrong: %+v", c)
	}
	if c.NumOps != 12345 || c.FitStarts != 3 {
		t.Errorf("fit options wrong: %+v", c)
	}
}

func TestParseCampaignRejectsUnknownFields(t *testing.T) {
	if _, err := ParseCampaign([]byte(`{"machines":[{"name":"core2"}],"suites":["cpu2006"],"robsize":1}`)); err == nil {
		t.Error("unknown top-level field should fail")
	}
	if _, err := ParseCampaign([]byte(`{"machines":[{"name":"core2","overides":{}}],"suites":["cpu2006"]}`)); err == nil {
		t.Error("typoed machine field should fail")
	}
	if _, err := ParseCampaign([]byte(`{"machines":[],"suites":["cpu2006"]}`)); err == nil {
		t.Error("empty machine list should fail")
	}
	if _, err := ParseCampaign([]byte(`{"machines":[{"name":"core2"}],"suites":[]}`)); err == nil {
		t.Error("empty suite list should fail")
	}
	if _, err := ParseCampaign([]byte(`{"machines":[{"name":"core2"}],"suites":["cpu2006"]}{"machines":[{"name":"corei7"}],"suites":["cpu2000"]}`)); err == nil {
		t.Error("trailing scenario document should fail, not be silently dropped")
	}
	for _, closer := range []string{"}", "]"} {
		if _, err := ParseCampaign([]byte(`{"machines":[{"name":"core2"}],"suites":["cpu2006"]}` + closer)); err == nil {
			t.Errorf("stray trailing %q should fail", closer)
		}
	}
}

func TestNewCampaignLabResolvesAndValidates(t *testing.T) {
	ok := Campaign{
		Machines: []MachineSpec{
			{Name: "core2"},
			{Name: "core2-fast", Base: "core2", Overrides: uarch.Overrides{MemLat: 100}},
		},
		Suites: []string{"cpu2000"},
	}
	l, err := NewCampaignLab(ok, Options{NumOps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.Machine("core2-fast")
	if err != nil || m.MemLat != 100 {
		t.Errorf("derived campaign machine wrong: %v, %+v", err, m)
	}
	if got := l.SuiteNames(); len(got) != 1 || got[0] != "cpu2000" {
		t.Errorf("suite names %v", got)
	}

	bad := []Campaign{
		{Machines: []MachineSpec{{Name: "atom"}}, Suites: []string{"cpu2000"}},
		{Machines: []MachineSpec{{Name: "x", Base: "atom"}}, Suites: []string{"cpu2000"}},
		{Machines: []MachineSpec{{Name: "core2"}, {Name: "core2"}}, Suites: []string{"cpu2000"}},
		{Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2017"}},
		{Machines: []MachineSpec{{Name: "core2"}}, Suites: []string{"cpu2000", "cpu2000"}},
		{Machines: []MachineSpec{{Name: ""}}, Suites: []string{"cpu2000"}},
		{Machines: []MachineSpec{{Name: "broken", Base: "core2",
			Overrides: uarch.Overrides{ROBSize: 8, IQSize: 64}}}, Suites: []string{"cpu2000"}},
	}
	for i, c := range bad {
		if _, err := NewCampaignLab(c, Options{NumOps: 1000}); err == nil {
			t.Errorf("campaign %d should fail: %+v", i, c)
		}
	}
}

func TestCampaignFitOptionsYieldToExplicitOptions(t *testing.T) {
	c := PaperCampaign()
	c.NumOps = 2222
	c.FitStarts = 3
	c.Seed = 9
	l, err := NewCampaignLab(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.opts.NumOps != 2222 || l.opts.FitStarts != 3 || l.opts.Seed != 9 {
		t.Errorf("campaign fit options not inherited: %+v", l.opts)
	}
	l, err = NewCampaignLab(c, Options{NumOps: 4444, FitStarts: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.opts.NumOps != 4444 || l.opts.FitStarts != 5 || l.opts.Seed != 2 {
		t.Errorf("explicit options should win: %+v", l.opts)
	}
}

func TestPaperCampaignMatchesLegacyNewLab(t *testing.T) {
	l := NewLab(Options{NumOps: 1000})
	var names []string
	for _, m := range l.Machines() {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != "pentium4,core2,corei7" {
		t.Errorf("machines %v", names)
	}
	if got := strings.Join(l.SuiteNames(), ","); got != "cpu2000,cpu2006" {
		t.Errorf("suites %s", got)
	}
	if l.NumWorkloads() != 48+55 {
		t.Errorf("NumWorkloads %d, want 103", l.NumWorkloads())
	}
}

// tinySuite is a 12-workload suite (just enough observations for the
// 10-parameter fit) registered once for campaign/sweep tests, so grid
// plumbing is exercised without full SPEC-scale runs.
func tinySuite(t *testing.T) string {
	t.Helper()
	const name = "tiny-test"
	if _, err := suites.ByName(name, suites.Options{}); err == nil {
		return name
	}
	err := suites.Register(name, func(opts suites.Options) suites.Suite {
		if opts.NumOps <= 0 {
			opts.NumOps = 2000
		}
		s := suites.Suite{Name: name}
		for i := 0; i < 12; i++ {
			f := float64(i)
			s.Workloads = append(s.Workloads, trace.Spec{
				Name: fmt.Sprintf("w%02d", i), Seed: uint64(100+i) + opts.SeedBase, NumOps: opts.NumOps,
				LoadFrac: 0.22 + 0.01*f, StoreFrac: 0.1, FPFrac: 0.02 * f,
				BranchHardFrac: 0.05 + 0.03*f,
				CodeFootprint:  int64(16+40*i) << 10, CodeLocality: 0.85 - 0.02*f,
				DataFootprint: int64(1+3*i) << 20, DataLocality: 0.7 - 0.04*f,
				PointerChaseFrac: 0.03 * f, DepDistMean: 5 + 0.8*f,
				LongChainFrac: 0.08 + 0.01*f, FusibleFrac: 0.4,
			})
		}
		return s
	})
	if err != nil {
		t.Fatal(err)
	}
	return name
}

func TestCampaignLabSimulatesDerivedGrid(t *testing.T) {
	sn := tinySuite(t)
	c := Campaign{
		Machines: []MachineSpec{
			{Name: "core2"},
			{Name: "core2-rob48c", Base: "core2", Overrides: uarch.Overrides{ROBSize: 48}},
			{Name: "core2-mshr2", Base: "core2", Overrides: uarch.Overrides{MSHRs: 2}},
		},
		Suites:    []string{sn},
		NumOps:    3000,
		FitStarts: 2,
	}
	l, err := NewCampaignLab(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	if st := l.SimStats(); st.Simulated != 36 {
		t.Errorf("simulated %d runs, want 36 (3 machines × 12 workloads)", st.Simulated)
	}
	for _, mn := range []string{"core2", "core2-rob48c", "core2-mshr2"} {
		if _, err := l.Model(mn, sn); err != nil {
			t.Errorf("fit on %s: %v", mn, err)
		}
	}
	// Distinct configurations must produce distinct measurements.
	a, _ := l.Run("core2", sn, "w11")
	b, _ := l.Run("core2-mshr2", sn, "w11")
	if a.Counters.Cycles == b.Counters.Cycles {
		t.Error("MSHR-starved variant should not match base cycle count")
	}
}
