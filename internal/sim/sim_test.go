package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/uarch"
)

func baseSpec(name string, seed uint64) trace.Spec {
	return trace.Spec{
		Name:             name,
		Seed:             seed,
		NumOps:           60000,
		LoadFrac:         0.25,
		StoreFrac:        0.10,
		FPFrac:           0.08,
		MulFrac:          0.02,
		DivFrac:          0.002,
		BranchHardFrac:   0.25,
		CodeFootprint:    32 << 10,
		CodeLocality:     0.8,
		DataFootprint:    512 << 10,
		DataLocality:     0.6,
		PointerChaseFrac: 0.05,
		DepDistMean:      10,
		LongChainFrac:    0.05,
		FusibleFrac:      0.3,
	}
}

func mustRun(t *testing.T, m *uarch.Machine, spec trace.Spec) *Result {
	t.Helper()
	s, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(trace.Materialize(spec))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunBasicConsistency(t *testing.T) {
	for _, m := range uarch.StockMachines() {
		r := mustRun(t, m, baseSpec("consistency", 1))
		c := &r.Counters
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if c.Uops == 0 || c.Cycles == 0 {
			t.Fatalf("%s: empty run", m.Name)
		}
		// CPI per µop must be at least 1/D (can't beat dispatch width).
		if cpi := c.CPI(); cpi < 1/float64(m.DispatchWidth) {
			t.Errorf("%s: CPI %.3f below 1/width", m.Name, cpi)
		}
		// Stack total must equal total cycles (slot accounting is exact).
		if diff := math.Abs(r.Truth.Total() - float64(c.Cycles)); diff > 1.5 {
			t.Errorf("%s: stack total %.1f vs cycles %d (diff %.2f)",
				m.Name, r.Truth.Total(), c.Cycles, diff)
		}
		// Base component equals N/D.
		wantBase := float64(c.Uops) / float64(m.DispatchWidth)
		if math.Abs(r.Truth.Cycles[CompBase]-wantBase) > 1 {
			t.Errorf("%s: base %.1f, want N/D=%.1f", m.Name, r.Truth.Cycles[CompBase], wantBase)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	m := uarch.CoreTwo()
	a := mustRun(t, m, baseSpec("det", 7))
	b := mustRun(t, m, baseSpec("det", 7))
	if a.Counters != b.Counters {
		t.Errorf("counters differ across identical runs:\n%v\n%v", a.Counters, b.Counters)
	}
	if a.Truth != b.Truth {
		t.Error("ground-truth stacks differ across identical runs")
	}
}

func TestSimulatorReusableAcrossRuns(t *testing.T) {
	m := uarch.CoreI7()
	s, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.Materialize(baseSpec("reuse", 3))
	r1, err := s.Run(buf)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(buf)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counters != r2.Counters {
		t.Error("re-running the same buffer on the same simulator diverged")
	}
}

func TestNewRejectsInvalidMachine(t *testing.T) {
	m := uarch.CoreTwo()
	m.ROBSize = 0
	if _, err := New(m); err == nil {
		t.Error("expected validation error")
	}
}

func TestEmptyStreamFails(t *testing.T) {
	// NumOps must be >=1 by spec validation, so simulate exhaustion by
	// running a 1-op stream twice without reset... Run resets, so instead
	// check that the minimal stream works.
	spec := baseSpec("tiny", 1)
	spec.NumOps = 1
	r := mustRun(t, uarch.CoreTwo(), spec)
	if r.Counters.Uops != 1 {
		t.Errorf("tiny run committed %d µops", r.Counters.Uops)
	}
}

func TestMemoryBoundSlowerThanComputeBound(t *testing.T) {
	m := uarch.CoreTwo()
	small := baseSpec("smallws", 11)
	small.DataFootprint = 16 << 10 // fits in L1
	big := baseSpec("bigws", 11)
	big.DataFootprint = 64 << 20 // 16× the 4MB L2
	big.DataLocality = 0.1
	rs := mustRun(t, m, small)
	rb := mustRun(t, m, big)
	if rb.Counters.CPI() <= rs.Counters.CPI()*1.5 {
		t.Errorf("memory-bound CPI %.3f should far exceed cache-resident CPI %.3f",
			rb.Counters.CPI(), rs.Counters.CPI())
	}
	if rb.Counters.LLCDLoadMisses == 0 {
		t.Error("big working set should miss the LLC")
	}
	if rb.Truth.Cycles[CompLLCLoad] <= rs.Truth.Cycles[CompLLCLoad] {
		t.Error("LLC-load component should grow with the working set")
	}
}

func TestBranchEntropyRaisesMispredictions(t *testing.T) {
	m := uarch.CoreTwo()
	easy := baseSpec("easy", 13)
	easy.BranchHardFrac = 0
	hard := baseSpec("hard", 13)
	hard.BranchHardFrac = 0.9
	re := mustRun(t, m, easy)
	rh := mustRun(t, m, hard)
	mpkiE := re.Counters.MPKI(re.Counters.BranchMispredicts)
	mpkiH := rh.Counters.MPKI(rh.Counters.BranchMispredicts)
	if mpkiH < 2*mpkiE+1 {
		t.Errorf("hard-branch MPKI %.2f should dwarf easy MPKI %.2f", mpkiH, mpkiE)
	}
	if rh.Truth.Cycles[CompBranch] <= re.Truth.Cycles[CompBranch] {
		t.Error("branch component should grow with misprediction rate")
	}
}

func TestPipelineDepthAmplifiesBranchPenalty(t *testing.T) {
	// Same predictor and workload; deeper front end → larger branch
	// component per misprediction.
	shallow := uarch.CoreTwo()
	deep := uarch.CoreTwo()
	deep.Name = "core2-deep"
	deep.FrontEndDepth = 40
	spec := baseSpec("depth", 17)
	spec.BranchHardFrac = 0.6
	rs := mustRun(t, shallow, spec)
	rd := mustRun(t, deep, spec)
	// Identical streams and predictors → same misprediction counts.
	if rs.Counters.BranchMispredicts != rd.Counters.BranchMispredicts {
		t.Fatalf("misprediction counts differ: %d vs %d",
			rs.Counters.BranchMispredicts, rd.Counters.BranchMispredicts)
	}
	perMissS := rs.Truth.Cycles[CompBranch] / float64(rs.Counters.BranchMispredicts)
	perMissD := rd.Truth.Cycles[CompBranch] / float64(rd.Counters.BranchMispredicts)
	if perMissD-perMissS < 20 || perMissD-perMissS > 32 {
		t.Errorf("depth +26 should add ~26 cycles per miss, got %.1f → %.1f", perMissS, perMissD)
	}
}

func TestICacheFootprintEffect(t *testing.T) {
	m := uarch.CoreTwo()
	smallCode := baseSpec("smallcode", 19)
	smallCode.CodeFootprint = 8 << 10 // fits 32KB L1I
	bigCode := baseSpec("bigcode", 19)
	bigCode.CodeFootprint = 1 << 20 // 1MB, blows out L1I
	bigCode.CodeLocality = 0.1
	rs := mustRun(t, m, smallCode)
	rb := mustRun(t, m, bigCode)
	if rb.Counters.L1IMisses < 10*rs.Counters.L1IMisses+10 {
		t.Errorf("big code L1I misses %d vs small %d", rb.Counters.L1IMisses, rs.Counters.L1IMisses)
	}
	icacheCycles := func(r *Result) float64 {
		return r.Truth.Cycles[CompICacheL2] + r.Truth.Cycles[CompICacheL3] + r.Truth.Cycles[CompICacheMem]
	}
	if icacheCycles(rb) <= icacheCycles(rs) {
		t.Error("I-cache component should grow with code footprint")
	}
}

func TestMLPParallelVsPointerChase(t *testing.T) {
	m := uarch.CoreI7()
	parallel := baseSpec("parallel", 23)
	parallel.DataFootprint = 64 << 20
	parallel.DataLocality = 0.05
	parallel.PointerChaseFrac = 0
	parallel.DepDistMean = 30
	chase := parallel
	chase.Name = "chase"
	chase.PointerChaseFrac = 0.95
	chase.LoadFrac = parallel.LoadFrac
	rp := mustRun(t, m, parallel)
	rc := mustRun(t, m, chase)
	if rp.MeasuredMLP < 1.3 {
		t.Errorf("independent misses should overlap: MLP %.2f", rp.MeasuredMLP)
	}
	if rc.MeasuredMLP > rp.MeasuredMLP-0.2 {
		t.Errorf("pointer chasing should suppress MLP: chase %.2f vs parallel %.2f",
			rc.MeasuredMLP, rp.MeasuredMLP)
	}
}

func TestFusionReducesUopsNotInstructions(t *testing.T) {
	noFuse := uarch.CoreI7()
	noFuse.FusionRate = 0
	fuse := uarch.CoreI7()
	fuse.Name = "corei7-fused"
	spec := baseSpec("fusion", 29)
	spec.FusibleFrac = 0.5
	rn := mustRun(t, noFuse, spec)
	rf := mustRun(t, fuse, spec)
	if rn.Counters.Instructions != rf.Counters.Instructions {
		t.Errorf("instruction counts must match: %d vs %d",
			rn.Counters.Instructions, rf.Counters.Instructions)
	}
	if rf.Counters.Uops >= rn.Counters.Uops {
		t.Errorf("fusion should shrink µop count: %d vs %d", rf.Counters.Uops, rn.Counters.Uops)
	}
	// With ~50% of pairs fusible at rate 0.75, expect a >5% µop reduction.
	ratio := float64(rf.Counters.Uops) / float64(rn.Counters.Uops)
	if ratio > 0.95 {
		t.Errorf("fusion ratio %.3f, want < 0.95", ratio)
	}
}

func TestLongChainsCauseResourceStalls(t *testing.T) {
	// Suppress branch effects (chains also lengthen branch resolution,
	// which would otherwise absorb the extra cycles) and compare per-µop
	// resource-stall cycles directly.
	m := uarch.CoreTwo()
	ilp := baseSpec("ilp", 31)
	ilp.BranchHardFrac = 0
	ilp.DepDistMean = 40
	ilp.LongChainFrac = 0
	ilp.DivFrac = 0
	chain := baseSpec("chain", 31)
	chain.BranchHardFrac = 0
	chain.DepDistMean = 1.5
	chain.LongChainFrac = 0.8
	chain.FPFrac = 0.25
	chain.DivFrac = 0.02
	ri := mustRun(t, m, ilp)
	rc := mustRun(t, m, chain)
	perUopI := ri.Truth.Cycles[CompResource] / float64(ri.Counters.Uops)
	perUopC := rc.Truth.Cycles[CompResource] / float64(rc.Counters.Uops)
	if perUopC <= perUopI {
		t.Errorf("dependence chains should raise resource-stall cycles per µop: %.3f vs %.3f",
			perUopC, perUopI)
	}
	if rc.Counters.CPI() <= ri.Counters.CPI() {
		t.Error("serial chains should raise CPI")
	}
}

func TestGenerationalSpeedup(t *testing.T) {
	// On a representative workload the Core 2 should outperform the
	// Pentium 4 per instruction, and the i7 should at least match Core 2
	// (the paper's overall delta stacks).
	spec := baseSpec("generations", 37)
	var cpis []float64
	for _, m := range uarch.StockMachines() {
		r := mustRun(t, m, spec)
		cpis = append(cpis, r.Counters.CPIPerInstr())
	}
	if cpis[1] >= cpis[0] {
		t.Errorf("Core 2 CPI/instr %.3f should beat Pentium 4 %.3f", cpis[1], cpis[0])
	}
	if cpis[2] > cpis[1]*1.1 {
		t.Errorf("i7 CPI/instr %.3f should not regress vs Core 2 %.3f", cpis[2], cpis[1])
	}
}

func TestDTLBComponent(t *testing.T) {
	m := uarch.PentiumFour() // tiny 64-entry DTLB, 70-cycle walks
	spec := baseSpec("tlbheavy", 41)
	spec.DataFootprint = 32 << 20 // 8192 pages >> 64 TLB entries
	spec.DataLocality = 0
	r := mustRun(t, m, spec)
	if r.Counters.DTLBMisses == 0 {
		t.Fatal("expected DTLB misses")
	}
	if r.Truth.Cycles[CompDTLB] == 0 && r.Truth.Cycles[CompLLCLoad] == 0 {
		t.Error("TLB-heavy workload should show DTLB or LLC cycles")
	}
}

func TestStackComponentsNonNegative(t *testing.T) {
	r := mustRun(t, uarch.CoreI7(), baseSpec("nonneg", 43))
	for _, c := range Components() {
		if r.Truth.Cycles[c] < 0 {
			t.Errorf("component %v negative: %v", c, r.Truth.Cycles[c])
		}
	}
}

func TestComponentStrings(t *testing.T) {
	for _, c := range Components() {
		if c.String() == "" {
			t.Errorf("component %d has empty name", c)
		}
	}
	if Component(99).String() == "" {
		t.Error("unknown component should render")
	}
}

func TestStackHelpers(t *testing.T) {
	var s Stack
	s.Cycles[CompBase] = 30
	s.Cycles[CompBranch] = 10
	if s.Total() != 40 {
		t.Errorf("total %v", s.Total())
	}
	if f := s.Fraction(CompBranch); math.Abs(f-0.25) > 1e-12 {
		t.Errorf("fraction %v", f)
	}
	per := s.CPIStack(10)
	if per.Cycles[CompBase] != 3 {
		t.Errorf("CPIStack base %v", per.Cycles[CompBase])
	}
	var empty Stack
	if empty.Fraction(CompBase) != 0 {
		t.Error("empty stack fraction should be 0")
	}
	if z := empty.CPIStack(0); z.Total() != 0 {
		t.Error("CPIStack(0) should be zero")
	}
}

func TestMinHeap(t *testing.T) {
	h := newMinHeap(4)
	for _, v := range []uint64{5, 3, 8, 1, 9, 2} {
		h.push(v)
	}
	want := []uint64{1, 2, 3, 5, 8, 9}
	for _, w := range want {
		if h.min() != w {
			t.Fatalf("min %d, want %d", h.min(), w)
		}
		h.pop()
	}
	if h.len() != 0 {
		t.Error("heap should be empty")
	}
	h.push(4)
	h.push(6)
	h.popUpTo(5)
	if h.len() != 1 || h.min() != 6 {
		t.Error("popUpTo should remove values <= bound")
	}
}

func TestPrefetchEnabledMachine(t *testing.T) {
	// End-to-end: a streamer-equipped Core 2 must run correctly and speed
	// up a sequential-scan workload without perturbing counters validity.
	stock := uarch.CoreTwo()
	pf := uarch.CoreTwo()
	pf.Name = "core2-pf"
	pf.Prefetch = uarch.PrefetchConfig{Enabled: true, Streams: 64, Degree: 4}
	spec := baseSpec("stream", 53)
	spec.DataFootprint = 64 << 20
	spec.DataLocality = 0.1
	spec.PointerChaseFrac = 0
	rStock := mustRun(t, stock, spec)
	rPF := mustRun(t, pf, spec)
	if err := rPF.Counters.Validate(); err != nil {
		t.Fatal(err)
	}
	// The Zipf stream is not purely sequential, so demand misses don't
	// vanish, but the L2-visible misses must not increase.
	if rPF.Counters.LLCDLoadMisses > rStock.Counters.LLCDLoadMisses {
		t.Errorf("prefetch increased demand LLC misses: %d vs %d",
			rPF.Counters.LLCDLoadMisses, rStock.Counters.LLCDLoadMisses)
	}
	if rPF.Counters.CPI() > rStock.Counters.CPI()*1.02 {
		t.Errorf("prefetch should not slow the machine down: %.3f vs %.3f",
			rPF.Counters.CPI(), rStock.Counters.CPI())
	}
}

// Property: for arbitrary small workloads and any stock machine, the
// counters stay internally consistent and the ground-truth stack sums to
// the measured cycle count.
func TestSimInvariantsProperty(t *testing.T) {
	machines := uarch.StockMachines()
	sims := make([]*Simulator, len(machines))
	for i, m := range machines {
		s, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = s
	}
	f := func(seed uint64, loadF, hardF, mIdx uint8) bool {
		spec := baseSpec("prop", seed)
		spec.NumOps = 4000
		spec.LoadFrac = float64(loadF%35) / 100
		spec.BranchHardFrac = float64(hardF%100) / 100
		s := sims[int(mIdx)%len(sims)]
		r, err := s.Run(trace.Materialize(spec))
		if err != nil {
			return false
		}
		if r.Counters.Validate() != nil {
			return false
		}
		if math.Abs(r.Truth.Total()-float64(r.Counters.Cycles)) > 1.5 {
			return false
		}
		for _, c := range Components() {
			if r.Truth.Cycles[c] < 0 {
				return false
			}
		}
		// CPI cannot beat the dispatch width.
		return r.Counters.CPI() >= 1/float64(s.Machine().DispatchWidth)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestResultEncodeRoundTripAndDeterminism(t *testing.T) {
	s, err := New(uarch.CoreTwo())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(trace.Materialize(baseSpec("encode", 5)))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("Encode is not deterministic")
	}
	got := new(Result)
	if err := json.Unmarshal(b1, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("decode(encode(r)) != r:\n got %+v\nwant %+v", got, r)
	}
}

func TestMSHRHeapMatchesLinearScan(t *testing.T) {
	// The heap must hand out exactly the values a least-soon-free linear
	// scan would: replaceMin always replaces the minimum, and the minimum
	// sequence matches a reference slice implementation.
	h := mshrHeap{a: make([]uint64, 5)}
	h.reset()
	ref := make([]uint64, 5)
	r := rng.New(7)
	var now uint64
	for i := 0; i < 2000; i++ {
		now += r.Uint64() % 50
		best := 0
		for j := 1; j < len(ref); j++ {
			if ref[j] < ref[best] {
				best = j
			}
		}
		if got := h.min(); got != ref[best] {
			t.Fatalf("step %d: heap min %d, scan min %d", i, got, ref[best])
		}
		start := now
		if ref[best] > start {
			start = ref[best]
		}
		end := start + 1 + r.Uint64()%300
		ref[best] = end
		h.replaceMin(end)
	}
}

func TestBadPredictorConfigFailsAtRun(t *testing.T) {
	// New no longer builds a predictor (Run constructs a fresh one per
	// run), so a broken predictor config surfaces on the first Run.
	m := uarch.CoreTwo()
	m.Predictor.Kind = uarch.PredictorKind(99)
	s, err := New(m)
	if err != nil {
		t.Fatalf("New should defer predictor validation to Run: %v", err)
	}
	if _, err := s.Run(trace.Materialize(baseSpec("badpred", 3))); err == nil {
		t.Error("Run should reject an unknown predictor kind")
	}
}

// Replaying one shared buffer must reproduce, per float, the Result of
// a fresh simulator over a fresh materialization on every stock
// machine, and must stay stable when replayed again: the run store and
// the grid plan engine treat every cursor over a workload's stream as
// interchangeable.
func TestBufferReplayResultsBitIdentical(t *testing.T) {
	spec := baseSpec("replay", 23)
	buf := trace.Materialize(spec)
	for _, m := range uarch.StockMachines() {
		want := mustRun(t, m, spec)
		s, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"first", "second"} {
			got, err := s.Run(buf.Replay())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s replay of the shared buffer drifted", m.Name, pass)
			}
		}
	}
}
