package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func testSpec() Spec {
	return Spec{
		Name:             "test",
		Seed:             42,
		NumOps:           50000,
		LoadFrac:         0.25,
		StoreFrac:        0.10,
		FPFrac:           0.10,
		MulFrac:          0.02,
		DivFrac:          0.005,
		BranchHardFrac:   0.3,
		CodeFootprint:    64 << 10,
		CodeLocality:     0.7,
		DataFootprint:    1 << 20,
		DataLocality:     0.6,
		PointerChaseFrac: 0.1,
		DepDistMean:      8,
		LongChainFrac:    0.1,
		FusibleFrac:      0.3,
	}
}

func collect(g *Generator) []MicroOp {
	var ops []MicroOp
	var op MicroOp
	for g.Next(&op) {
		ops = append(ops, op)
	}
	return ops
}

func TestStreamLength(t *testing.T) {
	g := New(testSpec())
	ops := collect(g)
	if len(ops) != 50000 {
		t.Fatalf("got %d ops, want 50000", len(ops))
	}
	var op MicroOp
	if g.Next(&op) {
		t.Error("Next should keep returning false after exhaustion")
	}
}

func TestDeterministicAndResettable(t *testing.T) {
	a := collect(New(testSpec()))
	g := New(testSpec())
	b := collect(g)
	g.Reset()
	c := collect(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two generators diverged at op %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Fatalf("reset stream diverged at op %d: %+v vs %+v", i, a[i], c[i])
		}
	}
}

func TestSequenceNumbers(t *testing.T) {
	ops := collect(New(testSpec()))
	for i, op := range ops {
		if op.Seq != uint64(i) {
			t.Fatalf("op %d has Seq %d", i, op.Seq)
		}
	}
}

func TestInstructionMix(t *testing.T) {
	spec := testSpec()
	spec.NumOps = 200000
	ops := collect(New(spec))
	counts := map[Kind]int{}
	for _, op := range ops {
		counts[op.Kind]++
	}
	n := float64(len(ops))
	// Branch fraction is set by block lengths (4..12, mean 8) → ~1/8.
	if f := float64(counts[KindBranch]) / n; f < 0.08 || f > 0.18 {
		t.Errorf("branch fraction %.3f, want ~0.125", f)
	}
	// Non-branch kinds follow the mix applied to non-branch slots (~87.5%).
	nonBr := n - float64(counts[KindBranch])
	if f := float64(counts[KindLoad]) / nonBr; math.Abs(f-0.25) > 0.03 {
		t.Errorf("load fraction %.3f, want ~0.25 of non-branch", f)
	}
	if f := float64(counts[KindStore]) / nonBr; math.Abs(f-0.10) > 0.02 {
		t.Errorf("store fraction %.3f, want ~0.10", f)
	}
	if f := float64(counts[KindFP]) / nonBr; math.Abs(f-0.10) > 0.02 {
		t.Errorf("fp fraction %.3f, want ~0.10", f)
	}
	if counts[KindDiv] == 0 || counts[KindMul] == 0 || counts[KindInt] == 0 {
		t.Error("expected some div, mul and int ops")
	}
}

func TestAddressesWithinFootprints(t *testing.T) {
	spec := testSpec()
	ops := collect(New(spec))
	for _, op := range ops {
		if op.Kind.IsMem() {
			if op.Addr < dataBase || op.Addr >= dataBase+uint64(spec.DataFootprint) {
				t.Fatalf("data address %#x outside footprint", op.Addr)
			}
		}
		if op.PC < codeBase || op.PC >= codeBase+uint64(spec.CodeFootprint)+64 {
			t.Fatalf("PC %#x outside code footprint", op.PC)
		}
		if op.Kind == KindBranch {
			if op.Target < codeBase || op.Target >= codeBase+uint64(spec.CodeFootprint)+64 {
				t.Fatalf("branch target %#x outside code footprint", op.Target)
			}
		}
	}
}

func TestDependencesValid(t *testing.T) {
	ops := collect(New(testSpec()))
	for i, op := range ops {
		if uint64(op.Dep1) > op.Seq || uint64(op.Dep2) > op.Seq {
			t.Fatalf("op %d: dependence beyond stream start (dep1=%d dep2=%d seq=%d)",
				i, op.Dep1, op.Dep2, op.Seq)
		}
	}
	// First op can have no dependences.
	if ops[0].Dep1 != 0 || ops[0].Dep2 != 0 {
		t.Error("first op must have no dependences")
	}
}

func TestStoresHaveTwoOperands(t *testing.T) {
	ops := collect(New(testSpec()))
	for _, op := range ops {
		if op.Kind == KindStore && op.Seq > 10 && op.Dep2 == 0 {
			t.Fatalf("store at seq %d lacks a data operand", op.Seq)
		}
	}
}

func TestFusePairsWellFormed(t *testing.T) {
	ops := collect(New(testSpec()))
	for i := 0; i < len(ops); i++ {
		if ops[i].FuseHead {
			if ops[i].FuseTail {
				t.Fatalf("op %d is both head and tail", i)
			}
			if i+1 < len(ops) && !ops[i+1].FuseTail {
				t.Fatalf("head at %d not followed by tail", i)
			}
		}
		if ops[i].FuseTail && i > 0 && !ops[i-1].FuseHead {
			t.Fatalf("tail at %d not preceded by head", i)
		}
	}
}

func TestTakenBranchesGoToTargets(t *testing.T) {
	ops := collect(New(testSpec()))
	for i := 0; i < len(ops)-1; i++ {
		if ops[i].Kind == KindBranch {
			// The next op's PC must equal the recorded target (taken or
			// fall-through — the generator stores the actual next PC).
			if ops[i+1].PC != ops[i].Target {
				t.Fatalf("branch at %d: target %#x but next PC %#x", i, ops[i].Target, ops[i+1].PC)
			}
		}
	}
}

func TestInstrBoundaries(t *testing.T) {
	spec := testSpec()
	spec.NumOps = 100000
	ops := collect(New(spec))
	instrs := 0
	for _, op := range ops {
		if op.InstrFirst {
			instrs++
		}
	}
	ratio := float64(len(ops)) / float64(instrs)
	// ~1.5 canonical µops per instruction by construction.
	if ratio < 1.3 || ratio > 1.7 {
		t.Errorf("µops per instruction %.2f, want ~1.5", ratio)
	}
	if !ops[0].InstrFirst {
		t.Error("first µop must start an instruction")
	}
}

func TestBranchHardFracAffectsBias(t *testing.T) {
	// With all-hard branches, outcomes should be near 50/50; with
	// all-easy, heavily biased one way or another per branch site.
	hard := testSpec()
	hard.Name = "hard"
	hard.BranchHardFrac = 1
	hard.NumOps = 100000
	easy := testSpec()
	easy.Name = "easy"
	easy.BranchHardFrac = 0
	easy.NumOps = 100000

	flipRate := func(spec Spec) float64 {
		// Measure per-PC outcome instability: fraction of branches whose
		// outcome differs from that PC's previous outcome. Random branches
		// flip ~50% of the time, biased ones rarely.
		g := New(spec)
		last := map[uint64]bool{}
		flips, total := 0, 0
		var op MicroOp
		for g.Next(&op) {
			if op.Kind != KindBranch {
				continue
			}
			if prev, ok := last[op.PC]; ok {
				total++
				if prev != op.Taken {
					flips++
				}
			}
			last[op.PC] = op.Taken
		}
		return float64(flips) / float64(total)
	}
	fHard, fEasy := flipRate(hard), flipRate(easy)
	if fHard < 0.3 {
		t.Errorf("hard branches flip rate %.3f, want >= 0.3", fHard)
	}
	if fEasy > 0.15 {
		t.Errorf("easy branches flip rate %.3f, want <= 0.15", fEasy)
	}
	if fHard <= fEasy {
		t.Errorf("hard flip rate (%.3f) should exceed easy (%.3f)", fHard, fEasy)
	}
}

func TestDataLocalityConcentratesAccesses(t *testing.T) {
	lowLoc := testSpec()
	lowLoc.Name = "lowloc"
	lowLoc.DataLocality = 0
	hiLoc := testSpec()
	hiLoc.Name = "hiloc"
	hiLoc.DataLocality = 1

	hotMass := func(spec Spec) float64 {
		g := New(spec)
		var op MicroOp
		hot, total := 0, 0
		hotLimit := dataBase + uint64(spec.DataFootprint)/10
		for g.Next(&op) {
			if op.Kind.IsMem() {
				total++
				if op.Addr < hotLimit {
					hot++
				}
			}
		}
		return float64(hot) / float64(total)
	}
	lo, hi := hotMass(lowLoc), hotMass(hiLoc)
	if hi <= lo {
		t.Errorf("high locality hot mass %.3f should exceed low locality %.3f", hi, lo)
	}
	if hi < 0.5 {
		t.Errorf("high locality hot mass %.3f, want > 0.5", hi)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	breakers := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.NumOps = 0 },
		func(s *Spec) { s.LoadFrac = 0.9; s.StoreFrac = 0.9 },
		func(s *Spec) { s.BranchHardFrac = 1.5 },
		func(s *Spec) { s.PointerChaseFrac = -0.1 },
		func(s *Spec) { s.CodeFootprint = 100 },
		func(s *Spec) { s.DataFootprint = 100 },
		func(s *Spec) { s.DepDistMean = 0.5 },
	}
	for i, b := range breakers {
		s := testSpec()
		b(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("breaker %d: expected validation error", i)
		}
	}
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Spec{})
}

func TestKindStrings(t *testing.T) {
	for k := KindInt; k < kindCount; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should render")
	}
	if !KindLoad.IsMem() || !KindStore.IsMem() || KindInt.IsMem() {
		t.Error("IsMem misclassifies")
	}
}

// Property: any valid-ish spec yields a stream with consistent PCs,
// dependences and length.
func TestStreamInvariantsProperty(t *testing.T) {
	f := func(seed uint64, loadF, locality uint8) bool {
		spec := testSpec()
		spec.Seed = seed
		spec.NumOps = 2000
		spec.LoadFrac = float64(loadF%40) / 100
		spec.DataLocality = float64(locality%100) / 100
		g := New(spec)
		var op MicroOp
		count := 0
		for g.Next(&op) {
			if op.Seq != uint64(count) {
				return false
			}
			if uint64(op.Dep1) > op.Seq || uint64(op.Dep2) > op.Seq {
				return false
			}
			if op.Kind.IsMem() && op.Addr == 0 {
				return false
			}
			count++
		}
		return count == spec.NumOps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSpecConfigHashStableAndSensitive(t *testing.T) {
	a := Spec{Name: "w", Seed: 7, NumOps: 1000, CodeFootprint: 4096,
		DataFootprint: 1 << 20, DepDistMean: 6}
	b := a
	if a.ConfigHash() != b.ConfigHash() {
		t.Error("identical specs must hash equal")
	}
	b.Seed++
	if a.ConfigHash() == b.ConfigHash() {
		t.Error("changing the seed must change the hash")
	}
	c := a
	c.PointerChaseFrac = 0.3
	if a.ConfigHash() == c.ConfigHash() {
		t.Error("changing a knob must change the hash")
	}
}

// A materialized Buffer must replay the exact µop sequence its
// Generator emits — the invariant the whole shared-trace grid path
// rests on — and Replay cursors must be independent of each other.
func TestBufferReplaysGeneratorStreamExactly(t *testing.T) {
	spec := Spec{
		Name: "buffered", Seed: 11, NumOps: 20000,
		LoadFrac: 0.25, StoreFrac: 0.1, FPFrac: 0.05,
		BranchHardFrac: 0.2,
		CodeFootprint:  64 << 10, CodeLocality: 0.7,
		DataFootprint: 2 << 20, DataLocality: 0.5,
		PointerChaseFrac: 0.05, DepDistMean: 8,
		LongChainFrac: 0.1, FusibleFrac: 0.3,
	}
	g := New(spec)
	buf := Materialize(spec)
	if buf.NumOps() != spec.NumOps {
		t.Fatalf("buffer holds %d ops, want %d", buf.NumOps(), spec.NumOps)
	}
	if buf.Spec().ConfigHash() != spec.ConfigHash() {
		t.Error("buffer spec round-trip failed")
	}
	var want, got MicroOp
	for i := 0; g.Next(&want); i++ {
		if !buf.Next(&got) {
			t.Fatalf("buffer exhausted at op %d", i)
		}
		if got != want {
			t.Fatalf("op %d differs: buffer %+v vs generator %+v", i, got, want)
		}
	}
	if buf.Next(&got) {
		t.Error("buffer longer than the generating stream")
	}

	// Reset restarts the cursor; Replay cursors advance independently.
	buf.Reset()
	a, b := buf.Replay(), buf.Replay()
	var oa, ob MicroOp
	if !a.Next(&oa) || !a.Next(&oa) {
		t.Fatal("replay cursor exhausted early")
	}
	if !b.Next(&ob) || ob.Seq != 0 {
		t.Errorf("second cursor should start at seq 0, got %d", ob.Seq)
	}
	if !buf.Next(&oa) || oa.Seq != 0 {
		t.Errorf("reset buffer should restart at seq 0, got %d", oa.Seq)
	}
}

func TestMaterializePanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Materialize of an invalid spec should panic, as New does")
		}
	}()
	Materialize(Spec{Name: "bad"})
}
