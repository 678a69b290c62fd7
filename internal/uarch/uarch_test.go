package uarch

import (
	"math"
	"strings"
	"testing"
)

func TestStockMachinesValidate(t *testing.T) {
	for _, m := range StockMachines() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTableTwoParameters(t *testing.T) {
	// The machine-visible model parameters must match the paper's Table 2.
	cases := []struct {
		m                         *Machine
		width, depth, l2, l3, mem int
		tlb                       int
	}{
		{PentiumFour(), 3, 31, 31, 0, 313, 70},
		{CoreTwo(), 4, 14, 19, 0, 169, 30},
		{CoreI7(), 4, 14, 14, 30, 160, 40},
	}
	for _, c := range cases {
		p := c.m.Params()
		if p.DispatchWidth != c.width {
			t.Errorf("%s width %d, want %d", c.m.Name, p.DispatchWidth, c.width)
		}
		if p.FrontEndDepth != c.depth {
			t.Errorf("%s depth %d, want %d", c.m.Name, p.FrontEndDepth, c.depth)
		}
		if p.L2Lat != c.l2 {
			t.Errorf("%s L2 lat %d, want %d", c.m.Name, p.L2Lat, c.l2)
		}
		if p.L3Lat != c.l3 {
			t.Errorf("%s L3 lat %d, want %d", c.m.Name, p.L3Lat, c.l3)
		}
		if p.MemLat != c.mem {
			t.Errorf("%s mem lat %d, want %d", c.m.Name, p.MemLat, c.mem)
		}
		if p.TLBLat != c.tlb {
			t.Errorf("%s TLB lat %d, want %d", c.m.Name, p.TLBLat, c.tlb)
		}
	}
}

func TestTableOneCaches(t *testing.T) {
	p4, c2, i7 := PentiumFour(), CoreTwo(), CoreI7()
	if p4.L1D.SizeBytes != 16<<10 {
		t.Errorf("P4 L1D %d, want 16KB", p4.L1D.SizeBytes)
	}
	if p4.L2.SizeBytes != 1<<20 {
		t.Errorf("P4 L2 %d, want 1MB", p4.L2.SizeBytes)
	}
	if p4.HasL3() {
		t.Error("P4 should not have L3")
	}
	if c2.L2.SizeBytes != 4<<20 {
		t.Errorf("Core2 L2 %d, want 4MB", c2.L2.SizeBytes)
	}
	if c2.HasL3() {
		t.Error("Core2 should not have L3")
	}
	if i7.L2.SizeBytes != 256<<10 {
		t.Errorf("i7 L2 %d, want 256KB", i7.L2.SizeBytes)
	}
	if !i7.HasL3() || i7.L3.SizeBytes != 8<<20 {
		t.Errorf("i7 L3 %d, want 8MB", i7.L3.SizeBytes)
	}
}

func TestGenerationTrends(t *testing.T) {
	p4, c2, i7 := PentiumFour(), CoreTwo(), CoreI7()
	// Fusion improves across generations.
	if !(p4.FusionRate < c2.FusionRate && c2.FusionRate < i7.FusionRate) {
		t.Error("fusion rate should grow across generations")
	}
	// i7 ROB larger than Core 2 (paper explains growing branch resolution
	// time on i7 via the larger window).
	if i7.ROBSize <= c2.ROBSize {
		t.Error("i7 ROB should exceed Core 2 ROB")
	}
	// Memory latency improves after P4.
	if !(p4.MemLat > c2.MemLat && c2.MemLat > i7.MemLat) {
		t.Error("memory latency should shrink across generations")
	}
}

func TestCacheConfigSetsAndValid(t *testing.T) {
	c := CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, LatCycles: 3}
	if c.Sets() != 64 {
		t.Errorf("sets %d, want 64", c.Sets())
	}
	if err := c.Valid(); err != nil {
		t.Error(err)
	}
	bad := CacheConfig{SizeBytes: 3000, LineBytes: 64, Assoc: 2}
	if err := bad.Valid(); err == nil {
		t.Error("expected invalid geometry error")
	}
	zero := CacheConfig{}
	if zero.Sets() != 0 {
		t.Error("zero config should have 0 sets")
	}
	if err := zero.Valid(); err == nil {
		t.Error("zero config should be invalid")
	}
	nonPow2 := CacheConfig{SizeBytes: 24 << 10, LineBytes: 64, Assoc: 2} // 192 sets
	if err := nonPow2.Valid(); err == nil {
		t.Error("non-power-of-two sets should be invalid")
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	breakers := []func(*Machine){
		func(m *Machine) { m.Name = "" },
		func(m *Machine) { m.DispatchWidth = 0 },
		func(m *Machine) { m.FrontEndDepth = 0 },
		func(m *Machine) { m.ROBSize = 0 },
		func(m *Machine) { m.IQSize = m.ROBSize + 1 },
		func(m *Machine) { m.MSHRs = 0 },
		func(m *Machine) { m.L1D.Assoc = 0 },
		func(m *Machine) { m.MemLat = 0 },
		func(m *Machine) { m.DTLB.Entries = 0 },
		func(m *Machine) { m.FusionRate = 1.5 },
		func(m *Machine) { m.FusionRate = math.NaN() },
		// Upper bounds: each of these once reached the simulator, which
		// allocated or scanned structures of that size.
		func(m *Machine) { m.ROBSize, m.IQSize = 1<<40, 32 },
		func(m *Machine) { m.IssueWidth = maxWidth + 1 },
		func(m *Machine) { m.FrontEndDepth = maxLatency + 1 },
		func(m *Machine) { m.LoadQueueSize = maxWindow + 1 },
		func(m *Machine) { m.MSHRs = 1 << 40 },
		func(m *Machine) { m.MemLat = 1 << 40 },
		func(m *Machine) { m.DTLB.Entries = 1 << 40 },
		func(m *Machine) { m.ITLB.MissLat = maxLatency + 1 },
		func(m *Machine) { m.L2.SizeBytes = 1 << 40 },
		func(m *Machine) { m.L1D.LineBytes = 1 << 62 },
		func(m *Machine) { m.L1D.Assoc = maxAssoc * 2 },
		func(m *Machine) { m.L2.LatCycles = maxLatency + 1 },
	}
	for i, breaker := range breakers {
		m := CoreTwo()
		breaker(m)
		if err := m.Validate(); err == nil {
			t.Errorf("breaker %d: expected validation error", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"pentium4", "core2", "corei7"} {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("ByName(%s) returned %s", name, m.Name)
		}
	}
	if _, err := ByName("atom"); err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("expected unknown machine error, got %v", err)
	}
}

func TestPredictorKindString(t *testing.T) {
	if PredBimodal.String() != "bimodal" || PredGshare.String() != "gshare" ||
		PredTournament.String() != "tournament" {
		t.Error("predictor kind strings wrong")
	}
	if PredictorKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestLLCLoadMissLat(t *testing.T) {
	if CoreTwo().LLCLoadMissLat() != 169 {
		t.Error("LLC miss latency should be memory latency")
	}
}

func TestConfigHashStableAndSensitive(t *testing.T) {
	a, b := CoreI7(), CoreI7()
	if a.ConfigHash() != b.ConfigHash() {
		t.Error("identical configs must hash equal")
	}
	if len(a.ConfigHash()) != 64 {
		t.Errorf("hash length %d, want 64 hex chars", len(a.ConfigHash()))
	}
	b.MSHRs++
	if a.ConfigHash() == b.ConfigHash() {
		t.Error("changing MSHRs must change the hash")
	}
	c := CoreI7()
	c.Prefetch = PrefetchConfig{Enabled: true, Streams: 64, Degree: 4}
	if a.ConfigHash() == c.ConfigHash() {
		t.Error("enabling the prefetcher must change the hash")
	}
	names := map[string]bool{}
	for _, m := range StockMachines() {
		names[m.ConfigHash()] = true
	}
	if len(names) != 3 {
		t.Errorf("stock machines share a hash: %d unique", len(names))
	}
}
