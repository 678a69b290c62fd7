package sim

import (
	"testing"

	"repro/internal/perfctr"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// timingOnly derives a machine from base that differs only in timing
// fields — window sizes, MSHRs, widths, memory, cache and TLB
// latencies, front-end depth and FU latencies — from the fuzzer's knob
// bytes (missing knobs read as zero). Every value stays valid.
func timingOnly(base *uarch.Machine, knobs []byte) *uarch.Machine {
	k := func(i int) int {
		if i < len(knobs) {
			return int(knobs[i])
		}
		return 0
	}
	m := *base
	m.Name = base.Name + "-timing"
	m.ROBSize = 8 + 2*k(0)
	m.IQSize = 1 + k(1)%m.ROBSize
	m.MSHRs = 1 + k(2)%32
	m.DispatchWidth = 1 + k(3)%8
	m.IssueWidth = 1 + k(4)%8
	m.CommitWidth = 1 + k(5)%8
	m.MemLat = 20 + 4*k(6)
	m.FrontEndDepth = 1 + k(7)%40
	m.IntLat = 1 + k(8)%3
	m.MulLat = 1 + k(9)%8
	m.FPLat = 1 + k(10)%10
	m.DivLat = 1 + k(11)%40
	m.LoadAGU = k(12) % 3
	m.StoreLat = 1 + k(13)%3
	m.L1D.LatCycles = 1 + k(14)%6
	m.L2.LatCycles = 5 + k(15)%40
	if m.HasL3() {
		m.L3.LatCycles = 10 + k(16)%60
	}
	m.ITLB.MissLat = 5 + k(17)%100
	m.DTLB.MissLat = 5 + k(18)%100
	m.LoadQueueSize = 1 + k(19)%64
	return &m
}

// missEvents are the counters that count events rather than time.
func missEvents(c perfctr.Counters) [13]uint64 {
	return [13]uint64{c.Uops, c.Instructions, c.Branches, c.BranchMispredicts,
		c.L1IMisses, c.L2IMisses, c.L3IMisses, c.LLCIMisses, c.ITLBMisses,
		c.L1DLoadMisses, c.L1DLoadL2Hits, c.LLCDLoadMisses, c.DTLBMisses}
}

// FuzzTimingOnlyMachine checks metamorphic properties of the live
// simulator over random machines derived from a stock one by changing
// timing fields only:
//   - every miss, TLB, branch and misprediction counter equals the stock
//     machine's: latencies and window sizes price events, they never
//     change which events happen (the premise of sharing one walk);
//   - raising MemLat never shrinks the I-cache-memory component of the
//     ground-truth stack (each memory fetch stalls dispatch for MemLat
//     cycles) nor the cycle count.
//
// The LLC-load component alone is not monotone in MemLat, and neither
// is its sum with the I-cache-memory one: a branch that waits on a
// missed load resolves later, so its redirect stall takes over window
// stall time that was charged to the load. Knobs "00011" on core2
// (seed 1) show it: MemLat 20 → 31 moves llc-load 77 → 64 cycles while
// branch grows 1002 → 1538. That is how the oracle attributes
// overlapped time, so it is not checked here.
func FuzzTimingOnlyMachine(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(10), []byte{44, 31, 7, 2, 2, 2, 70, 30})
	f.Add(uint8(1), uint64(2), uint16(1), []byte{})
	f.Add(uint8(2), uint64(3), uint16(300), []byte{60, 17, 15, 3, 3, 3, 35, 13, 0, 2, 3, 17, 1, 0, 3, 13, 25, 35, 35, 31})
	f.Add(uint8(1), uint64(4), uint16(40), []byte{4, 255, 0, 0, 7, 0, 255, 0, 2, 7, 9, 39, 2, 2, 5, 39, 59, 99, 99, 63})
	f.Add(uint8(2), uint64(5), uint16(7), []byte{255, 3, 31, 7, 0, 7, 0, 39})
	f.Add(uint8(0), uint64(6), uint16(1000), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	stock := uarch.StockMachines()
	f.Fuzz(func(t *testing.T, mIdx uint8, seed uint64, memUp uint16, knobs []byte) {
		base := stock[int(mIdx)%len(stock)]
		spec := baseSpec("meta", seed)
		spec.NumOps = 3000
		buf := trace.Materialize(spec)
		run := func(m *uarch.Machine) Result {
			t.Helper()
			s, err := New(m)
			if err != nil {
				t.Fatalf("%+v: %v", m, err)
			}
			var r Result
			if err := s.RunInto(&r, buf.Replay()); err != nil {
				t.Fatal(err)
			}
			return r
		}
		m := timingOnly(base, knobs)
		want, got := run(base), run(m)
		if missEvents(got.Counters) != missEvents(want.Counters) {
			t.Fatalf("%s with timing changes counted other events:\n got %+v\nwant %+v",
				base.Name, got.Counters, want.Counters)
		}
		slower := *m
		slower.MemLat += 1 + int(memUp)%1024
		s := run(&slower)
		if s.Truth.Cycles[CompICacheMem] < got.Truth.Cycles[CompICacheMem] {
			t.Errorf("raising MemLat %d → %d shrank %s: %v → %v", m.MemLat, slower.MemLat,
				CompICacheMem, got.Truth.Cycles[CompICacheMem], s.Truth.Cycles[CompICacheMem])
		}
		if s.Counters.Cycles < got.Counters.Cycles {
			t.Errorf("raising MemLat %d → %d cut the cycle count: %d → %d",
				m.MemLat, slower.MemLat, got.Counters.Cycles, s.Counters.Cycles)
		}
	})
}
