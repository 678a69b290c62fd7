package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/perfctr"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// testCounters is a consistent counter fixture for delta tests.
func testCounters() perfctr.Counters {
	return perfctr.Counters{
		Cycles: 2_000_000, Uops: 1_000_000, Instructions: 700_000,
		Branches: 120_000, BranchMispredicts: 4_000,
		L1IMisses: 8_000, L2IMisses: 500, LLCIMisses: 500, ITLBMisses: 200,
		L1DLoadMisses: 30_000, L1DLoadL2Hits: 26_000, LLCDLoadMisses: 2_500,
		DTLBMisses: 900, FPOps: 90_000,
	}
}

// syntheticObservations draws features from plausible ranges and labels
// them with a known ground-truth model (+ optional multiplicative noise).
func syntheticObservations(n int, seed uint64, noise float64) ([]Observation, *Model) {
	truth := &Model{Machine: testMachineParams(), P: testParams()}
	r := rng.New(seed)
	obs := make([]Observation, n)
	for i := range obs {
		f := Features{
			MpuL1I:  0.01 * r.Float64() * r.Float64(),
			MpuLLCI: 0.001 * r.Float64() * r.Float64(),
			MpuITLB: 0.0005 * r.Float64() * r.Float64(),
			MpuBr:   0.015*r.Float64()*r.Float64() + 0.0001,
			MpuDL1:  0.03 * r.Float64(),
			MpuLLCD: 0.004 * r.Float64() * r.Float64(),
			MpuDTLB: 0.001 * r.Float64() * r.Float64(),
			FP:      0.35 * r.Float64(),
		}
		cpi := truth.PredictCPI(f) * (1 + noise*(2*r.Float64()-1))
		obs[i] = Observation{Name: "synth", Feat: f, MeasuredCPI: cpi}
	}
	return obs, truth
}

func TestFitRecoversSyntheticModel(t *testing.T) {
	obs, _ := syntheticObservations(60, 5, 0)
	m, err := Fit(testMachineParams(), obs, FitOptions{Starts: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictAll(obs)
	meas := make([]float64, len(obs))
	for i := range obs {
		meas[i] = obs[i].MeasuredCPI
	}
	if mare := stats.MARE(pred, meas); mare > 0.02 {
		t.Errorf("noiseless synthetic fit MARE %.4f, want < 0.02", mare)
	}
}

func TestFitToleratesNoise(t *testing.T) {
	obs, _ := syntheticObservations(60, 7, 0.10)
	m, err := Fit(testMachineParams(), obs, FitOptions{Starts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictAll(obs)
	meas := make([]float64, len(obs))
	for i := range obs {
		meas[i] = obs[i].MeasuredCPI
	}
	if mare := stats.MARE(pred, meas); mare > 0.10 {
		t.Errorf("noisy synthetic fit MARE %.4f, want <= noise level 0.10", mare)
	}
}

func TestFitDeterministic(t *testing.T) {
	obs, _ := syntheticObservations(30, 9, 0.05)
	a, err := Fit(testMachineParams(), obs, FitOptions{Starts: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(testMachineParams(), obs, FitOptions{Starts: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.P != b.P {
		t.Errorf("fits differ:\n%+v\n%+v", a.P, b.P)
	}
}

// TestFitIdenticalAcrossGOMAXPROCS pins the concurrent multi-starts:
// however many run at once, and in whatever order they finish, the fit
// returns the same parameters bit for bit.
func TestFitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	obs, _ := syntheticObservations(30, 13, 0.08)
	opts := FitOptions{Starts: 6, Seed: 5, MaxIter: 600}
	var want []float64
	for _, procs := range []int{1, 2, 16} {
		prev := runtime.GOMAXPROCS(procs)
		m, err := Fit(testMachineParams(), obs, opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := m.P.Slice()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS=%d: %s = %v, want %v (GOMAXPROCS=1)", procs, ParamNames()[i], got[i], want[i])
			}
		}
	}
}

// canaryMachine and canaryObservations are TestFitCanary's pinned fit
// input. They are written out in full, so the input depends on nothing
// but this file: no registry machine, generator or model evaluation.
var canaryMachine = uarch.ModelParams{DispatchWidth: 4, FrontEndDepth: 14, L2Lat: 14, MemLat: 180, TLBLat: 30}

func canaryObservations() []Observation {
	obs := make([]Observation, 24)
	for i := range obs {
		x := float64(i+1) / float64(len(obs))
		obs[i] = Observation{
			Name: fmt.Sprintf("w%02d", i),
			Feat: Features{
				MpuL1I: 0.004 * x * x, MpuLLCI: 0.0004 * (1 - x), MpuITLB: 0.0002 * x,
				MpuBr: 0.001 + 0.01*x*(1-x), MpuDL1: 0.02 * (1 - x*x),
				MpuLLCD: 0.003 * x * x * x, MpuDTLB: 0.0008 * x, FP: 0.3 * (1 - x),
			},
			MeasuredCPI: 0.6 + 1.5*x + 0.4*(1-x)*(1-x),
		}
	}
	return obs
}

// TestFitCanary guards FitVersion: stored fits are keyed by it, so a
// change to the fit's math that keeps the version would serve the old
// math's parameters from every warm run store. The digest of the ten
// fitted parameters' bits on a pinned input must equal fitCanaryDigest;
// when it changes on purpose, bump FitVersion and update both.
func TestFitCanary(t *testing.T) {
	m, err := Fit(canaryMachine, canaryObservations(), FitOptions{Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	for _, v := range m.P.Slice() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != fitCanaryDigest {
		t.Errorf("fit of the pinned input changed: digest %s, want %s (params %+v);\n"+
			"bump FitVersion (%q) and set fitCanaryDigest to the new digest", got, fitCanaryDigest, m.P, FitVersion)
	}
}

// TestFitAllocsIndependentOfIterations pins the allocation-free inner
// loops: every Nelder–Mead and Levenberg–Marquardt buffer is allocated
// once per run, so ten times the iteration budget allocates no more.
func TestFitAllocsIndependentOfIterations(t *testing.T) {
	obs, _ := syntheticObservations(30, 13, 0.08)
	allocs := func(maxIter int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Fit(testMachineParams(), obs, FitOptions{Starts: 3, Seed: 5, MaxIter: maxIter}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(200), allocs(2000)
	t.Logf("allocs/op: %v at MaxIter 200, %v at MaxIter 2000", short, long)
	if long > short {
		t.Errorf("Fit allocates %v times at MaxIter 2000, %v at MaxIter 200", long, short)
	}
}

func TestFitErrors(t *testing.T) {
	obs, _ := syntheticObservations(5, 1, 0)
	if _, err := Fit(testMachineParams(), obs, FitOptions{}); err == nil {
		t.Error("expected error with too few observations")
	}
	obs, _ = syntheticObservations(20, 1, 0)
	if _, err := Fit(uarch.ModelParams{}, obs, FitOptions{}); err == nil {
		t.Error("expected error with invalid machine params")
	}
	obs[3].MeasuredCPI = 0
	if _, err := Fit(testMachineParams(), obs, FitOptions{}); err == nil {
		t.Error("expected error with non-positive CPI")
	}
}

// TestFitOnSimulatedWorkloads is the end-to-end heart of the
// reproduction: simulate a slice of the CPU2000-like suite on the Core 2
// machine, fit the model on the resulting counters, and require a Figure
// 2-like accuracy (the paper reports ~10% average error; the bar here is
// deliberately looser because this subset is small and short).
func TestFitOnSimulatedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	m := uarch.CoreTwo()
	s, err := sim.New(m)
	if err != nil {
		t.Fatal(err)
	}
	suite := suites.CPU2000Like(suites.Options{NumOps: 80000})
	var obs []Observation
	for i, w := range suite.Workloads {
		if i%2 == 1 { // every other workload: keep the test fast
			continue
		}
		r, err := s.Run(trace.Materialize(w))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		o, err := ObservationFrom(w.Name, &r.Counters)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		obs = append(obs, o)
	}
	model, err := Fit(m.Params(), obs, FitOptions{Starts: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pred := model.PredictAll(obs)
	meas := make([]float64, len(obs))
	for i := range obs {
		meas[i] = obs[i].MeasuredCPI
	}
	mare := stats.MARE(pred, meas)
	t.Logf("end-to-end fit on %d workloads: MARE %.1f%%", len(obs), 100*mare)
	if mare > 0.20 {
		t.Errorf("end-to-end MARE %.1f%%, want < 20%%", 100*mare)
	}
}

func TestComputeDeltaSelfIsZero(t *testing.T) {
	// Comparing a machine against itself must yield an all-zero delta.
	ctr := testCounters()
	model := &Model{Machine: testMachineParams(), P: testParams()}
	runs := []MachineRun{{Name: "w1", Ctr: ctr}}
	d, err := ComputeDelta("a", model, runs, "b", model, runs)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"width": d.Overall.Width, "fusion": d.Overall.Fusion,
		"icache": d.Overall.ICache, "memory": d.Overall.Memory,
		"branch": d.Overall.Branch, "other": d.Overall.Other,
		"br-miss": d.Branch.Mispredictions, "br-res": d.Branch.Resolution,
		"br-fe": d.Branch.FrontEnd, "llc-miss": d.LLC.Misses,
		"llc-lat": d.LLC.Latency, "llc-mlp": d.LLC.MLP,
	} {
		if math.Abs(v) > 1e-12 {
			t.Errorf("self-delta %s = %v, want 0", name, v)
		}
	}
}

func TestComputeDeltaErrors(t *testing.T) {
	model := &Model{Machine: testMachineParams(), P: testParams()}
	ctr := testCounters()
	if _, err := ComputeDelta("a", model, nil, "b", model, nil); err == nil {
		t.Error("expected error on empty runs")
	}
	oldRuns := []MachineRun{{Name: "w1", Ctr: ctr}}
	newRuns := []MachineRun{{Name: "other", Ctr: ctr}}
	if _, err := ComputeDelta("a", model, oldRuns, "b", model, newRuns); err == nil {
		t.Error("expected error on mismatched workload names")
	}
}

func TestDeltaDecompositionSumsMatch(t *testing.T) {
	// The branch factor deltas must sum to the branch-component change
	// computed directly from the two models.
	oldM := &Model{Machine: uarch.PentiumFour().Params(), P: testParams()}
	newM := &Model{Machine: uarch.CoreTwo().Params(), P: testParams()}
	oldCtr := testCounters()
	newCtr := oldCtr
	newCtr.BranchMispredicts = oldCtr.BranchMispredicts * 2 // worse predictor
	newCtr.Uops = oldCtr.Uops * 9 / 10                      // fusion
	oldRuns := []MachineRun{{Name: "w", Ctr: oldCtr}}
	newRuns := []MachineRun{{Name: "w", Ctr: newCtr}}
	d, err := ComputeDelta("p4", oldM, oldRuns, "core2", newM, newRuns)
	if err != nil {
		t.Fatal(err)
	}
	of, _ := FeaturesFrom(&oldCtr)
	nf, _ := FeaturesFrom(&newCtr)
	oMPI := float64(oldCtr.BranchMispredicts) / float64(oldCtr.Instructions)
	nMPI := float64(newCtr.BranchMispredicts) / float64(newCtr.Instructions)
	wantBranch := nMPI*(newM.BranchResolution(nf)+float64(newM.Machine.FrontEndDepth)) -
		oMPI*(oldM.BranchResolution(of)+float64(oldM.Machine.FrontEndDepth))
	if math.Abs(d.Branch.Total()-wantBranch) > 1e-9 {
		t.Errorf("branch factor sum %v, want %v", d.Branch.Total(), wantBranch)
	}
	// LLC factors likewise.
	oMiss := float64(oldCtr.LLCDLoadMisses) / float64(oldCtr.Instructions)
	nMiss := float64(newCtr.LLCDLoadMisses) / float64(newCtr.Instructions)
	wantLLC := nMiss*float64(newM.Machine.MemLat)/newM.MLP(nf) -
		oMiss*float64(oldM.Machine.MemLat)/oldM.MLP(of)
	if math.Abs(d.LLC.Total()-wantLLC) > 1e-9 {
		t.Errorf("LLC factor sum %v, want %v", d.LLC.Total(), wantLLC)
	}
	// Overall total equals the model-CPI-per-instruction change.
	oUPI := float64(oldCtr.Uops) / float64(oldCtr.Instructions)
	nUPI := float64(newCtr.Uops) / float64(newCtr.Instructions)
	wantTotal := newM.PredictCPI(nf)*nUPI - oldM.PredictCPI(of)*oUPI
	if math.Abs(d.Overall.Total()-wantTotal) > 1e-9 {
		t.Errorf("overall total %v, want %v", d.Overall.Total(), wantTotal)
	}
}

// TestFitStaysInBounds: whatever the observations and whichever model
// structure the ablation switches select, every fitted parameter lies
// inside fitBounds. The observation sets are random synthetic draws
// with random size and noise, their CPI labels scaled by up to e^±2 so
// that some fits want parameters far outside the box.
func TestFitStaysInBounds(t *testing.T) {
	sets, starts, maxIter := 4, 3, 1500
	if testing.Short() {
		sets, starts, maxIter = 1, 2, 300
	}
	b := fitBounds()
	names := ParamNames()
	r := rng.New(17)
	for set := range sets {
		n := 10 + r.Intn(50)
		noise := 0.5 * r.Float64()
		scale := math.Exp(4*r.Float64() - 2)
		obs, _ := syntheticObservations(n, r.Uint64(), noise)
		for i := range obs {
			obs[i].MeasuredCPI *= scale
		}
		for mask := range 16 {
			opts := FitOptions{
				Starts: starts, Seed: uint64(set + 1), MaxIter: maxIter,
				AdditiveBranch: mask&1 != 0,
				ConstantMLP:    mask&2 != 0,
				UnscaledStall:  mask&4 != 0,
				NoWindowCap:    mask&8 != 0,
			}
			m, err := Fit(testMachineParams(), obs, opts)
			if err != nil {
				t.Fatalf("set %d (n=%d noise=%.2f scale=%.2f) mask %04b: %v", set, n, noise, scale, mask, err)
			}
			for i, v := range m.P.Slice() {
				if !(v >= b.Lo[i] && v <= b.Hi[i]) {
					t.Errorf("set %d (n=%d noise=%.2f scale=%.2f) mask %04b: %s = %v outside [%v, %v]",
						set, n, noise, scale, mask, names[i], v, b.Lo[i], b.Hi[i])
				}
			}
		}
	}
}
