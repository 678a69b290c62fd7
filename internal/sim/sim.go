package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/perfctr"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Version identifies the timing semantics of the simulator (including the
// cache, branch-predictor, and trace-generator substrates it drives).
// Content-addressed caches of Results key on it, so bump it whenever a
// change anywhere in the pipeline can alter any Result — stale cached
// runs are then never reused.
const Version = "sim-v1"

// Result is the outcome of running one workload on one machine.
type Result struct {
	// Counters is everything a performance-counter tool could read — the
	// model's only per-workload input.
	Counters perfctr.Counters
	// Truth is the ground-truth cycle accounting (simulator oracle, not
	// available on real hardware) used to validate CPI stacks (Fig. 5).
	Truth Stack
	// MeasuredMLP is the oracle average number of outstanding memory
	// accesses while at least one is outstanding (Chou et al.'s MLP
	// definition). Not measurable with counters; used for validation.
	MeasuredMLP float64
}

// numKinds sizes per-kind lookup tables (trace.Kind values are < 8).
const numKinds = 8

// Simulator executes µop streams on one machine configuration. It is
// reusable across runs (state is reset per Run) and holds all its
// working storage — window, rings, walker, heaps — so steady-state runs
// allocate nothing. Not safe for concurrent use.
//
// The timing core learns what each µop met in the caches, TLBs and
// branch predictor only from its outcome word (see Tape). A live run
// (RunInto) walks each dispatch group into its words just before
// stepping it; a replay (Replay) reads the words a Tape recorded. The
// walker's structures are built on the first live run, so a simulator
// that only replays allocates no caches.
type Simulator struct {
	m    *uarch.Machine
	w    *walker // built on the first live run, reset per run
	mshr mshrHeap

	walkKey uarch.WalkKey // the tapes this machine may replay

	issue issueRing // issue-bandwidth ring: issues per future cycle
	seq   seqRing   // completion times by canonical sequence number
	rob   []robMeta
	iq    iqRing

	// Per-machine constants hoisted out of the per-op path.
	d           int
	fD          float64 // float64(DispatchWidth)
	invD        float64 // 1 / float64(DispatchWidth); CompBase per slot
	robSize     uint64
	iqSize      int
	issueWidth  int
	commitWidth int
	fusionRate  float64
	frontEnd    uint64           // FrontEndDepth
	latByKind   [numKinds]uint64 // FU latencies; loads/stores special-cased
	itlbMiss    uint64
	l2Lat       uint64
	l3Lat       uint64
	memLat      uint64
	loadAGU     uint64
	storeLat    uint64
	loadLat     [4]int // D-side load-to-use latency by cache.Level
	dtlbMiss    int

	// Per-run state, reset by begin.
	res        *Result
	ctr        *perfctr.Counters
	cycle      uint64 // current dispatch cycle
	slots      int    // dispatch slots used this cycle
	nextFetch  uint64 // front end unavailable before this cycle
	feReason   Component
	entryCount uint64 // dispatched entries (committed µops)
	robPos     int    // entryCount % ROBSize, maintained incrementally
	headIdx    uint64 // oldest possibly-uncommitted entry
	headPos    int    // headIdx % ROBSize
	lastCommit uint64
	commitCnt  int

	// MLP oracle accumulators (union-of-busy-intervals watermark).
	memBusySum   uint64
	memUnion     uint64
	coveredUntil uint64

	// Per-op scratch shared between step and doHalf.
	execStart uint64
	lat       uint64
	meta      robMeta
}

// New builds a simulator for machine m. The caches, TLBs and branch
// predictor are not built here but on the first live run, so a
// hierarchy or predictor configuration error surfaces there.
func New(m *uarch.Machine) (*Simulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.IssueWidth > issueCntMask {
		return nil, fmt.Errorf("sim: issue width %d exceeds the ring's %d-issue capacity",
			m.IssueWidth, issueCntMask)
	}
	s := &Simulator{
		m:       m,
		walkKey: m.WalkKey(),
		mshr:    mshrHeap{a: make([]uint64, m.MSHRs)},
		issue:   newIssueRing(),
		rob:     make([]robMeta, m.ROBSize),
		iq:      newIQRing(),

		d:           m.DispatchWidth,
		fD:          float64(m.DispatchWidth),
		invD:        1 / float64(m.DispatchWidth),
		robSize:     uint64(m.ROBSize),
		iqSize:      m.IQSize,
		issueWidth:  m.IssueWidth,
		commitWidth: m.CommitWidth,
		fusionRate:  m.FusionRate,
		frontEnd:    uint64(m.FrontEndDepth),
		itlbMiss:    uint64(m.ITLB.MissLat),
		l2Lat:       uint64(m.L2.LatCycles),
		l3Lat:       uint64(m.L3.LatCycles),
		memLat:      uint64(m.MemLat),
		loadAGU:     uint64(m.LoadAGU),
		storeLat:    uint64(m.StoreLat),
		loadLat: [4]int{
			cache.LvlL1:  m.L1D.LatCycles,
			cache.LvlL2:  m.L2.LatCycles,
			cache.LvlL3:  m.L3.LatCycles,
			cache.LvlMem: m.MemLat,
		},
		dtlbMiss: m.DTLB.MissLat,
	}
	for k := range s.latByKind {
		s.latByKind[k] = uint64(m.IntLat)
	}
	s.latByKind[trace.KindMul] = uint64(m.MulLat)
	s.latByKind[trace.KindFP] = uint64(m.FPLat)
	s.latByKind[trace.KindDiv] = uint64(m.DivLat)
	return s, nil
}

// Machine returns the simulated machine.
func (s *Simulator) Machine() *uarch.Machine { return s.m }

// fuseHash decides micro-fusion per static PC, deterministically: the
// same pair fuses on every execution, as in a real decoder.
func fuseHash(pc uint64) float64 {
	x := pc
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x&0xffff) / 65536
}

// robMeta is the per-ROB-entry metadata the accounting needs.
type robMeta struct {
	commit   uint64
	complete uint64
	isLoad   bool
	memTrip  bool
	dtlbMiss bool
}

// Run executes the materialized workload stream b to completion and
// returns counters and ground-truth accounting. It is RunInto with a
// fresh Result.
func (s *Simulator) Run(b *trace.Buffer) (*Result, error) {
	res := &Result{}
	if err := s.RunInto(res, b); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto executes the materialized workload stream b to completion and
// fills *res with counters and ground-truth accounting, overwriting any
// previous contents. The cursor is reset first, so the same Buffer can
// be run on several machines; its ops are iterated in place, each
// dispatch group walked through the caches and predictor and then
// stepped through the timing core.
//
// All working state lives on the Simulator, so steady-state calls
// allocate nothing — the benchmark gate asserts 0 B/op. A reset walker
// is bit-identical to a fresh one, so runs stay independent.
func (s *Simulator) RunInto(res *Result, b *trace.Buffer) error {
	w, err := walkerFor(s.m, s.w)
	if err != nil {
		return err
	}
	s.w = w
	b.Reset()
	s.begin(res)
	ok := s.driveOps(b.NextChunk())
	return s.end(ok, b.Spec().Name, &w.hier.IStats, &w.hier.DStats)
}

// begin resets the timing core's per-run state and points it at res.
func (s *Simulator) begin(res *Result) {
	s.issue.reset()
	s.seq.reset()
	s.mshr.reset()
	s.iq.reset()
	// Stale rob entries need no clearing: every slot consulted is first
	// written by this run (reads are bounded by entryCount/headIdx).

	*res = Result{}
	s.res = res
	s.ctr = &res.Counters
	s.cycle, s.slots = 0, 0
	s.nextFetch = 0
	s.feReason = CompBranch
	s.entryCount, s.robPos = 0, 0
	s.headIdx, s.headPos = 0, 0
	s.lastCommit, s.commitCnt = 0, 0
	s.memBusySum, s.memUnion, s.coveredUntil = 0, 0, 0
}

// end completes a run that drove a stream (ok is false when it was
// empty): it attributes the drain tail, folds in the miss statistics
// of the walk that fed the run and validates the counters.
func (s *Simulator) end(ok bool, workload string, is, ds *cache.SideStats) error {
	res := s.res
	if ok {
		s.finish(is, ds)
	}
	s.res, s.ctr = nil, nil
	if !ok {
		return fmt.Errorf("sim: empty µop stream for %q", workload)
	}
	if err := res.Counters.Validate(); err != nil {
		return fmt.Errorf("sim: inconsistent counters for %q on %s: %w",
			workload, s.m.Name, err)
	}
	return nil
}

// driveOps walks and steps a materialized stream in place, fusing a
// FuseHead with the µop after it when the static PC's fuseHash falls
// under the machine's fusion rate. It reports false for an empty
// stream.
func (s *Simulator) driveOps(ops []trace.MicroOp) bool {
	w := s.w
	for i := 0; i < len(ops); i++ {
		cur, tail := &ops[i], (*trace.MicroOp)(nil)
		if cur.FuseHead && i+1 < len(ops) && fuseHash(cur.PC) < s.fusionRate {
			i++
			tail = &ops[i]
		}
		wc, wt := w.walk(cur, tail)
		s.step(cur, tail, wc, wt)
	}
	return len(ops) > 0
}

// stall charges empty dispatch slots up to target to comp. Slot-level
// accounting invariant: the sum of Truth.Cycles always equals
// cycle + slots/D.
func (s *Simulator) stall(target uint64, comp Component) {
	if target <= s.cycle {
		return
	}
	s.res.Truth.Cycles[comp] += float64(s.d-s.slots)/s.fD + float64(target-s.cycle-1)
	s.cycle = target
	s.slots = 0
}

// classify attributes a window (ROB/IQ) stall at the current cycle to
// the oldest uncompleted in-flight op, ASPLOS'06-style: a pending
// last-level load miss → memory component; a pending D-TLB walk →
// D-TLB; anything else (dependence chains, FU latency, commit width)
// → resource stall.
func (s *Simulator) classify() Component {
	for s.headIdx < s.entryCount && s.rob[s.headPos].commit <= s.cycle {
		s.headIdx++
		s.headPos++
		if s.headPos == len(s.rob) {
			s.headPos = 0
		}
	}
	pos := s.headPos
	for j := s.headIdx; j < s.entryCount; j++ {
		mm := &s.rob[pos]
		pos++
		if pos == len(s.rob) {
			pos = 0
		}
		if mm.complete > s.cycle {
			switch {
			case mm.memTrip:
				return CompLLCLoad
			case mm.dtlbMiss:
				return CompDTLB
			default:
				return CompResource
			}
		}
	}
	return CompResource
}

// findIssueSlot books the first cycle ≥ t with spare issue bandwidth.
func (s *Simulator) findIssueSlot(t uint64) uint64 {
	if t > s.cycle+issueRingSize-4096 {
		// Beyond the tracked horizon; bandwidth contention there is
		// immaterial because the window has long since drained.
		return t
	}
	return s.issue.findSlot(t, s.issueWidth)
}

// considerDeps raises ready to the completion time of op's producers.
func (s *Simulator) considerDeps(op *trace.MicroOp, ready uint64) uint64 {
	if op.Dep1 != 0 {
		if t := s.seq.lookup(op.Seq - uint64(op.Dep1)); t > ready {
			ready = t
		}
	}
	if op.Dep2 != 0 {
		if t := s.seq.lookup(op.Seq - uint64(op.Dep2)); t > ready {
			ready = t
		}
	}
	return ready
}

// doHalf executes one half of a (possibly fused) dispatch group: loads
// are priced from their outcome word w, possibly acquiring an MSHR for
// memory trips (which can push execStart back); the group latency is
// the max across halves.
func (s *Simulator) doHalf(op *trace.MicroOp, w uint8) {
	var l uint64
	switch op.Kind {
	case trace.KindLoad:
		r := s.priceLoad(w)
		s.meta.isLoad = true
		if r.TLBMiss {
			s.meta.dtlbMiss = true
		}
		if r.MemTrip {
			s.meta.memTrip = true
			// Acquire the least-soon-free MSHR; stall issue if none.
			if free := s.mshr.min(); free > s.execStart {
				s.execStart = s.findIssueSlot(free)
			}
			end := s.execStart + uint64(r.Lat)
			s.mshr.replaceMin(end)
			s.memBusySum += uint64(r.Lat)
			start := s.execStart
			if start < s.coveredUntil {
				start = s.coveredUntil
			}
			if end > start {
				s.memUnion += end - start
			}
			if end > s.coveredUntil {
				s.coveredUntil = end
			}
		}
		l = s.loadAGU + uint64(r.Lat)
	case trace.KindStore:
		l = s.storeLat
	default:
		l = s.latByKind[op.Kind&(numKinds-1)]
	}
	if l > s.lat {
		s.lat = l
	}
	if op.Kind == trace.KindFP || op.Kind == trace.KindDiv {
		s.ctr.FPOps++
	}
	if op.InstrFirst {
		s.ctr.Instructions++
	}
}

// priceLoad prices a load's outcome word with the machine's latencies,
// as cache.Hierarchy.DoLoad does.
func (s *Simulator) priceLoad(w uint8) cache.Result {
	lvl := cache.Level(w & wDLevel >> wDShift)
	r := cache.Result{Level: lvl, Lat: s.loadLat[lvl&3], MemTrip: lvl == cache.LvlMem}
	if w&wDTLB != 0 {
		r.TLBMiss = true
		r.Lat += s.dtlbMiss
	}
	return r
}

// resolveBranch reads a branch's outcome from its word w and, on a
// misprediction, redirects the front end once the branch resolves.
func (s *Simulator) resolveBranch(complete uint64, w uint8) {
	s.ctr.Branches++
	if w&wMispredict != 0 {
		s.ctr.BranchMispredicts++
		if redirect := complete + s.frontEnd; redirect > s.nextFetch {
			s.nextFetch = redirect
			s.feReason = CompBranch
		}
	}
}

// fetchStall charges the instruction fetch of word w — on a fetch-line
// change — its ITLB walk and the level it was served from.
func (s *Simulator) fetchStall(w uint8) {
	if w&wITLB != 0 {
		s.stall(s.cycle+s.itlbMiss, CompITLB)
	}
	switch cache.Level(w & wILevel) {
	case cache.LvlL2:
		s.stall(s.cycle+s.l2Lat, CompICacheL2)
	case cache.LvlL3:
		s.stall(s.cycle+s.l3Lat, CompICacheL3)
	case cache.LvlMem:
		s.stall(s.cycle+s.memLat, CompICacheMem)
	}
}

// step dispatches one µop (with an optional fused tail), whose outcome
// words are wc and wt, and advances every timing structure: front
// end, window occupancy, issue, execute, branch resolution, and
// in-order commit. Ops are read-only — buffered sources pass pointers
// into a backing store shared across concurrent simulations.
func (s *Simulator) step(cur, tail *trace.MicroOp, wc, wt uint8) {
	// --- Dispatch-width boundary.
	if s.slots == s.d {
		s.cycle++
		s.slots = 0
	}

	// --- Front-end availability (branch redirects, earlier I-misses).
	if s.nextFetch > s.cycle {
		s.stall(s.nextFetch, s.feReason)
	}

	// --- Instruction-side cache/TLB: the walk sets I-bits only on a
	// fetch-line change, and an L1 hit without an ITLB miss costs
	// nothing.
	if wc&(wILevel|wITLB) != 0 {
		s.fetchStall(wc)
	}

	// --- ROB occupancy. The entry about to be overwritten is the one
	// dispatched ROBSize ops ago ((entryCount-ROBSize) ≡ entryCount
	// mod ROBSize — the same slot the new op will fill).
	if s.entryCount >= s.robSize {
		if free := s.rob[s.robPos].commit; free > s.cycle {
			s.stall(free, s.classify())
		}
	}

	// --- Issue-queue occupancy.
	s.iq.popUpTo(s.cycle)
	for s.iq.len() >= s.iqSize {
		tmin := s.iq.min()
		comp := s.classify()
		if tmin <= s.cycle {
			tmin = s.cycle + 1
		}
		s.stall(tmin, comp)
		s.iq.popUpTo(s.cycle)
	}

	// --- Dispatch at the current cycle.
	s.slots++

	// Operand readiness across both halves of a fused pair.
	ready := s.cycle + 1
	ready = s.considerDeps(cur, ready)
	if tail != nil {
		ready = s.considerDeps(tail, ready)
	}
	s.execStart = s.findIssueSlot(ready)

	// Execute both halves.
	s.lat = 0
	s.meta = robMeta{}
	s.doHalf(cur, wc)
	if tail != nil {
		s.doHalf(tail, wt)
	}
	complete := s.execStart + s.lat
	s.iq.push(s.execStart)

	// Branch resolution and misprediction redirect.
	if cur.Kind == trace.KindBranch {
		s.resolveBranch(complete, wc)
	}
	if tail != nil && tail.Kind == trace.KindBranch {
		s.resolveBranch(complete, wt)
	}

	// In-order commit, CommitWidth per cycle.
	t := complete + 1
	if t < s.lastCommit {
		t = s.lastCommit
	}
	if t == s.lastCommit {
		if s.commitCnt == s.commitWidth {
			t++
			s.commitCnt = 1
		} else {
			s.commitCnt++
		}
	} else {
		s.commitCnt = 1
	}
	s.lastCommit = t
	s.meta.commit = t
	s.meta.complete = complete
	s.rob[s.robPos] = s.meta

	s.seq.store(cur.Seq, complete)
	if tail != nil {
		s.seq.store(tail.Seq, complete)
	}

	// Accounting: the dispatched slot is base work.
	s.res.Truth.Cycles[CompBase] += s.invD
	s.entryCount++
	s.robPos++
	if s.robPos == len(s.rob) {
		s.robPos = 0
	}
	s.ctr.Uops++
}

// finish attributes the window-drain tail after the last dispatch and
// folds the walk's miss statistics into the counters.
func (s *Simulator) finish(is, ds *cache.SideStats) {
	res, ctr := s.res, s.ctr
	accounted := float64(s.cycle) + float64(s.slots)/s.fD
	pos := s.headPos
	for j := s.headIdx; j < s.entryCount; j++ {
		mm := &s.rob[pos]
		pos++
		if pos == len(s.rob) {
			pos = 0
		}
		ct := float64(mm.commit)
		if ct <= accounted {
			continue
		}
		comp := CompResource
		if mm.memTrip {
			comp = CompLLCLoad
		} else if mm.dtlbMiss {
			comp = CompDTLB
		}
		res.Truth.Cycles[comp] += ct - accounted
		accounted = ct
	}

	ctr.Cycles = s.lastCommit
	ctr.L1IMisses = is.L1Misses
	ctr.L2IMisses = is.L2Misses
	ctr.L3IMisses = is.L3Misses
	ctr.LLCIMisses = is.LLCMisses
	ctr.ITLBMisses = is.TLBMisses
	ctr.L1DLoadMisses = ds.L1LoadMisses
	ctr.L1DLoadL2Hits = ds.L1LoadL2Hits
	ctr.LLCDLoadMisses = ds.LLCLoadMisses
	ctr.DTLBMisses = ds.TLBMisses

	if s.memUnion > 0 {
		res.MeasuredMLP = float64(s.memBusySum) / float64(s.memUnion)
	}
}
