package branch

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/uarch"
)

func TestNewKinds(t *testing.T) {
	cases := []uarch.PredictorConfig{
		{Kind: uarch.PredBimodal, TableBits: 10},
		{Kind: uarch.PredGshare, TableBits: 10, HistoryBits: 8},
		{Kind: uarch.PredTournament, TableBits: 10, HistoryBits: 8},
	}
	names := []string{"bimodal", "gshare", "tournament"}
	for i, cfg := range cases {
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if p.Name() != names[i] {
			t.Errorf("got name %s, want %s", p.Name(), names[i])
		}
	}
}

func TestNewErrors(t *testing.T) {
	bad := []uarch.PredictorConfig{
		{Kind: uarch.PredBimodal, TableBits: 0},
		{Kind: uarch.PredBimodal, TableBits: 30},
		{Kind: uarch.PredGshare, TableBits: 10, HistoryBits: 0},
		{Kind: uarch.PredGshare, TableBits: 10, HistoryBits: 40},
		{Kind: uarch.PredTournament, TableBits: 10, HistoryBits: 0},
		{Kind: uarch.PredictorKind(9), TableBits: 10},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	c = c.update(false)
	if c != 0 {
		t.Error("counter should saturate at 0")
	}
	for i := 0; i < 5; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter should saturate at 3, got %d", c)
	}
	if !c.taken() {
		t.Error("3 should predict taken")
	}
	if counter(1).taken() {
		t.Error("1 should predict not-taken")
	}
}

// accuracy trains a predictor on a synthetic branch stream and returns
// the fraction of correct predictions.
func accuracy(p Predictor, outcomes func(i int) (pc uint64, taken bool), n int) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		pc, taken := outcomes(i)
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
	}
	return float64(correct) / float64(n)
}

func TestBimodalLearnsBias(t *testing.T) {
	p := newBimodal(10)
	// Strongly biased branch: ~always taken.
	acc := accuracy(p, func(i int) (uint64, bool) { return 0x4000, true }, 1000)
	if acc < 0.99 {
		t.Errorf("bimodal accuracy on constant branch %.3f", acc)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// Period-4 pattern TTNT: impossible for bimodal, easy for gshare.
	pattern := []bool{true, true, false, true}
	pg := newGshare(12, 8)
	accG := accuracy(pg, func(i int) (uint64, bool) { return 0x4000, pattern[i%4] }, 4000)
	pb := newBimodal(12)
	accB := accuracy(pb, func(i int) (uint64, bool) { return 0x4000, pattern[i%4] }, 4000)
	if accG < 0.95 {
		t.Errorf("gshare accuracy on periodic pattern %.3f, want >0.95", accG)
	}
	if accB > 0.85 {
		t.Errorf("bimodal accuracy on periodic pattern %.3f, unexpectedly high", accB)
	}
}

func TestTournamentBeatsComponentsOnMixedWorkload(t *testing.T) {
	// Half the branch sites are biased (bimodal-friendly), half follow a
	// global pattern (gshare-friendly). The tournament should be at least
	// as good as the weaker component on each site class.
	mixed := func(i int) (uint64, bool) {
		site := uint64(i % 8)
		pc := 0x4000 + site*4
		if site < 4 {
			return pc, true // biased sites
		}
		return pc, (i/8)%2 == 0 // pattern sites
	}
	accT := accuracy(newTournament(12, 10), mixed, 8000)
	if accT < 0.9 {
		t.Errorf("tournament accuracy %.3f on mixed workload, want > 0.9", accT)
	}
}

func TestRandomBranchesNearChance(t *testing.T) {
	r := rng.New(77)
	for _, p := range []Predictor{newBimodal(12), newGshare(12, 10), newTournament(12, 10)} {
		acc := accuracy(p, func(i int) (uint64, bool) { return 0x4000, r.Bool(0.5) }, 20000)
		if acc < 0.40 || acc > 0.60 {
			t.Errorf("%s accuracy on random branches %.3f, want ~0.5", p.Name(), acc)
		}
	}
}

func TestAliasingDistinctPCs(t *testing.T) {
	// Two branches with opposite bias at different PCs must not destroy
	// each other in a big enough bimodal table.
	p := newBimodal(12)
	acc := accuracy(p, func(i int) (uint64, bool) {
		if i%2 == 0 {
			return 0x4000, true
		}
		return 0x8004, false
	}, 4000)
	if acc < 0.99 {
		t.Errorf("two biased branches accuracy %.3f", acc)
	}
}

func TestStockConfigsConstruct(t *testing.T) {
	for _, m := range uarch.StockMachines() {
		if _, err := New(m.Predictor); err != nil {
			t.Errorf("%s predictor: %v", m.Name, err)
		}
	}
}

// TestPredictUpdateMatchesPredictThenUpdate pins the fused hot path:
// for every predictor kind, a PredictUpdate stream must return exactly
// what Predict would have and leave the predictor in exactly the state
// Predict+Update would — the simulator's bit-identity depends on it.
// Small tables force heavy aliasing so the single-index fusion is
// exercised where it could plausibly diverge.
func TestPredictUpdateMatchesPredictThenUpdate(t *testing.T) {
	mk := func() []Predictor {
		return []Predictor{newBimodal(4), newGshare(4, 6), newTournament(4, 6)}
	}
	ref, fused := mk(), mk()
	r := rng.New(99)
	for i := 0; i < 50000; i++ {
		pc := uint64(r.Uint64n(64)) << 2
		taken := r.Bool(0.6)
		for j := range ref {
			want := ref[j].Predict(pc)
			ref[j].Update(pc, taken)
			if got := fused[j].PredictUpdate(pc, taken); got != want {
				t.Fatalf("%s: step %d: PredictUpdate = %v, Predict+Update = %v",
					ref[j].Name(), i, got, want)
			}
		}
	}
	// The states converged too: both streams predict identically on a
	// fresh probe sweep.
	for j := range ref {
		for pc := uint64(0); pc < 64<<2; pc += 4 {
			if ref[j].Predict(pc) != fused[j].Predict(pc) {
				t.Errorf("%s: diverged state at pc %#x after identical streams", ref[j].Name(), pc)
			}
		}
	}
}

// TestResetMatchesFresh pins Reset: a trained-then-reset predictor must
// behave bit-identically to a newly constructed one (the simulator
// reuses one predictor across runs instead of reallocating).
func TestResetMatchesFresh(t *testing.T) {
	mk := func() []Predictor {
		return []Predictor{newBimodal(6), newGshare(6, 8), newTournament(6, 8)}
	}
	used, fresh := mk(), mk()
	r := rng.New(123)
	for i := 0; i < 20000; i++ {
		pc := uint64(r.Uint64n(256)) << 2
		for j := range used {
			used[j].PredictUpdate(pc, r.Bool(0.5))
		}
	}
	for j := range used {
		used[j].Reset()
	}
	r2 := rng.New(321)
	for i := 0; i < 20000; i++ {
		pc := uint64(r2.Uint64n(256)) << 2
		taken := r2.Bool(0.7)
		for j := range used {
			if used[j].PredictUpdate(pc, taken) != fresh[j].PredictUpdate(pc, taken) {
				t.Fatalf("%s: step %d: reset predictor diverged from a fresh one",
					used[j].Name(), i)
			}
		}
	}
}
