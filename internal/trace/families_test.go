package trace

import "testing"

// The two modulations new in this format version: piecewise-stationary
// phases and bursty data access. Both must be deterministic across
// Reset and must actually change the stream statistics they claim to.

func TestPhasedDeterministic(t *testing.T) {
	spec := phasedSpec()
	g := New(spec)
	first := make([]MicroOp, 0, spec.NumOps)
	var op MicroOp
	for g.Next(&op) {
		first = append(first, op)
	}
	g.Reset()
	for i := 0; g.Next(&op); i++ {
		if op != first[i] {
			t.Fatalf("op %d differs after Reset", i)
		}
	}
	if len(first) != spec.NumOps {
		t.Fatalf("emitted %d ops, want %d", len(first), spec.NumOps)
	}
}

func TestPhasesChangeLocality(t *testing.T) {
	spec := phasedSpec() // phase 0: locality 0.9; phase 1: locality 0.1
	buf := Materialize(spec)
	half := spec.NumOps / 2
	uniq := [2]map[uint64]bool{{}, {}}
	var op MicroOp
	for buf.Next(&op) {
		if !op.Kind.IsMem() {
			continue
		}
		ph := 0
		if int(op.Seq) >= half {
			ph = 1
		}
		uniq[ph][op.Addr/lineBytes] = true
	}
	if len(uniq[1]) < 2*len(uniq[0]) {
		t.Errorf("low-locality phase touches %d lines, high-locality phase %d; want a clear spread",
			len(uniq[1]), len(uniq[0]))
	}
}

func TestPhaseBranchNoise(t *testing.T) {
	spec := codecSpec()
	spec.Name = "noise"
	spec.BranchHardFrac = 0 // every static branch strongly biased
	spec.Phases = []Phase{
		{Frac: 0.5, DataLocality: 0.5},
		{Frac: 0.5, DataLocality: 0.5, BranchNoise: 1},
	}
	buf := Materialize(spec)
	half := spec.NumOps / 2
	var taken, branches [2]int
	var op MicroOp
	for buf.Next(&op) {
		if op.Kind != KindBranch {
			continue
		}
		ph := 0
		if int(op.Seq) >= half {
			ph = 1
		}
		branches[ph]++
		if op.Taken {
			taken[ph]++
		}
	}
	// Full noise makes every outcome a coin flip: taken rate ~0.5.
	rate := float64(taken[1]) / float64(branches[1])
	if rate < 0.45 || rate > 0.55 {
		t.Errorf("noisy phase taken rate %.3f, want ~0.5", rate)
	}
}

func TestBurstyDeterministicAndScattered(t *testing.T) {
	spec := burstySpec()
	a, b := Materialize(spec), Materialize(spec)
	var x, y MicroOp
	for i := 0; a.Next(&x); i++ {
		if !b.Next(&y) || x != y {
			t.Fatalf("bursty generation not deterministic at op %d", i)
		}
	}

	calm := spec
	calm.Name = "calm"
	calm.BurstFrac = 0
	calm.BurstLen = 0
	lines := func(s Spec) int {
		u := map[uint64]bool{}
		buf := Materialize(s)
		var op MicroOp
		for buf.Next(&op) {
			if op.Kind.IsMem() {
				u[op.Addr/lineBytes] = true
			}
		}
		return len(u)
	}
	if lb, lc := lines(spec), lines(calm); lb <= lc {
		t.Errorf("bursty stream touches %d lines, calm %d; uniform burst scatter should widen the set", lb, lc)
	}
}
