package uarch

import (
	"strings"
	"testing"
)

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Register("core2", CoreTwo); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate registration: got %v", err)
	}
	if err := Register("", CoreTwo); err == nil {
		t.Error("empty name should not register")
	}
	if err := Register("nilfactory", nil); err == nil {
		t.Error("nil factory should not register")
	}
}

func TestNamesContainsStockSorted(t *testing.T) {
	names := Names()
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
		if i > 0 && names[i-1] >= n {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	for _, want := range []string{"pentium4", "core2", "corei7"} {
		if _, ok := idx[want]; !ok {
			t.Errorf("Names missing %s: %v", want, names)
		}
	}
}

func TestByNameReturnsFreshInstances(t *testing.T) {
	a, err := ByName("core2")
	if err != nil {
		t.Fatal(err)
	}
	a.ROBSize = 1 // must not leak into later lookups
	b, err := ByName("core2")
	if err != nil {
		t.Fatal(err)
	}
	if b.ROBSize != CoreTwo().ROBSize {
		t.Error("ByName returned a shared, mutated instance")
	}
}

func TestByNameUnknownListsRegistered(t *testing.T) {
	_, err := ByName("atom")
	if err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Fatalf("expected unknown machine error, got %v", err)
	}
	if !strings.Contains(err.Error(), "core2") {
		t.Errorf("error should list registered names: %v", err)
	}
}

func TestDeriveAppliesOverrides(t *testing.T) {
	base := CoreTwo()
	m, err := Derive(base, "core2-big", Overrides{
		ROBSize: 192,
		MSHRs:   12,
		MemLat:  200,
		L2:      CacheOverrides{SizeBytes: 2 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "core2-big" || m.ROBSize != 192 || m.MSHRs != 12 || m.MemLat != 200 {
		t.Errorf("overrides not applied: %+v", m)
	}
	if m.L2.SizeBytes != 2<<20 || m.L2.LatCycles != base.L2.LatCycles {
		t.Errorf("cache override should change size only: %+v", m.L2)
	}
	if m.IQSize != base.IQSize || m.DispatchWidth != base.DispatchWidth {
		t.Error("untouched parameters must keep base values")
	}
	if base.ROBSize != CoreTwo().ROBSize || base.Name != "core2" {
		t.Error("Derive mutated the base machine")
	}
}

func TestDeriveFollowsIQUnderShrunkenROB(t *testing.T) {
	m, err := Derive(PentiumFour(), "p4-rob32", Overrides{ROBSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if m.IQSize != 32 {
		t.Errorf("IQ should follow ROB down to 32, got %d", m.IQSize)
	}
	// An explicitly pinned IQ larger than the ROB must still fail.
	if _, err := Derive(PentiumFour(), "p4-bad", Overrides{ROBSize: 32, IQSize: 64}); err == nil {
		t.Error("expected validation error for IQ > ROB")
	}
}

func TestDeriveFusionRateZeroIsExpressible(t *testing.T) {
	zero := 0.0
	m, err := Derive(CoreTwo(), "core2-nofuse", Overrides{FusionRate: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if m.FusionRate != 0 {
		t.Errorf("fusion rate %v, want 0", m.FusionRate)
	}
}

func TestDeriveRejectsInvalidVariants(t *testing.T) {
	if _, err := Derive(CoreTwo(), "", Overrides{}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := Derive(CoreTwo(), "bad-geom", Overrides{
		L2: CacheOverrides{SizeBytes: 3000},
	}); err == nil {
		t.Error("invalid cache geometry should fail validation")
	}
}

func TestDerivedMachineHashSensitivity(t *testing.T) {
	base := CoreTwo()
	a, err := Derive(base, "core2-rob160", Overrides{ROBSize: 160})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Derive(base, "core2-rob160", Overrides{ROBSize: 160})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigHash() != b.ConfigHash() {
		t.Error("identical derivations must hash equal")
	}
	if a.ConfigHash() == base.ConfigHash() {
		t.Error("derived machine must not alias its base in content-addressed stores")
	}
	c, err := Derive(base, "core2-rob160", Overrides{ROBSize: 160, MSHRs: base.MSHRs + 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigHash() == c.ConfigHash() {
		t.Error("changing an override must change the hash")
	}
}
