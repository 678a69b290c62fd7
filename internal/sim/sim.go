package sim

import (
	"encoding/json"
	"fmt"

	"repro/internal/branch"
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

// Encode serializes the result deterministically: field order is fixed by
// the struct definitions and floats use Go's shortest exact round-trip
// encoding, so equal Results always produce byte-identical encodings.
func (r *Result) Encode() ([]byte, error) {
	return json.Marshal(r)
}

// numKinds sizes per-kind lookup tables (trace.Kind values are < 8).
const numKinds = 8

// Simulator executes µop streams on one machine configuration. It is
// reusable across runs (state is reset per Run) and holds all its
// working storage — window, rings, predictor, heaps — so steady-state
// runs allocate nothing. Not safe for concurrent use.
//
// A run either walks the caches, TLBs and branch predictor live
// (RunInto) or reads their outcomes from a Tape recorded by one walk of
// the trace (Replay); the one step function serves both, and only its
// four touch points — the fetch-line access, load, store and branch
// resolve — look at which.
type Simulator struct {
	m    *uarch.Machine
	hier *cache.Hierarchy // nil on a replay-only simulator
	pred branch.Predictor // built lazily on first Run, Reset per run
	mshr mshrHeap

	walkKey string // m.WalkHash(): the tapes this machine may replay
	tape    *Tape  // non-nil while replaying
	wCur    uint8  // tape words of the µops step is dispatching
	wTail   uint8

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
	frontEnd    uint64 // FrontEndDepth
	lineShift   uint
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
	lastLine   uint64
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

// New builds a simulator for machine m. The branch predictor is not
// built here: Run constructs one lazily anyway (a predictor-configuration
// error surfaces on the first Run).
func New(m *uarch.Machine) (*Simulator, error) {
	s, err := NewReplayer(m)
	if err != nil {
		return nil, err
	}
	if s.hier, err = cache.NewHierarchy(m); err != nil {
		return nil, err
	}
	return s, nil
}

// NewReplayer builds a replay-only simulator for machine m: the timing
// core without a cache hierarchy or branch predictor. It runs Replay
// from tapes of m's walk key; RunInto fails on it.
func NewReplayer(m *uarch.Machine) (*Simulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.IssueWidth > issueCntMask {
		return nil, fmt.Errorf("sim: issue width %d exceeds the ring's %d-issue capacity",
			m.IssueWidth, issueCntMask)
	}
	s := &Simulator{
		m:       m,
		walkKey: m.WalkHash(),
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
	for m.L1I.LineBytes>>s.lineShift > 1 {
		s.lineShift++
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

// Run executes the workload stream g to completion and returns counters
// and ground-truth accounting. It is RunInto with a fresh Result.
func (s *Simulator) Run(g trace.Source) (*Result, error) {
	res := &Result{}
	if err := s.RunInto(res, g); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto executes the workload stream g to completion and fills *res
// with counters and ground-truth accounting, overwriting any previous
// contents. The source is reset first, so the same Generator or Buffer
// cursor can be run on several machines. A materialized trace.Buffer
// replay produces the exact stream its Generator would, so Results are
// bit-identical across source kinds (the buffer takes the batched
// Chunked path, the generator the streaming path; both drive the same
// per-op step).
//
// All working state lives on the Simulator, so steady-state calls
// allocate nothing — the benchmark gate asserts 0 B/op.
func (s *Simulator) RunInto(res *Result, g trace.Source) error {
	if s.hier == nil {
		return fmt.Errorf("sim: %s: a replay-only simulator cannot run %q live", s.m.Name, g.Spec().Name)
	}
	g.Reset()
	s.hier.Reset()
	if s.pred == nil {
		// Built on first use so a bad predictor config errors here, and
		// Reset thereafter: a reset predictor is bit-identical to a fresh
		// one, and runs stay independent without per-run allocation.
		pred, err := branch.New(s.m.Predictor)
		if err != nil {
			return err
		}
		s.pred = pred
	} else {
		s.pred.Reset()
	}
	s.begin(res)
	var ok bool
	if c, isChunked := g.(trace.Chunked); isChunked {
		ok = s.driveChunked(c)
	} else {
		ok = s.driveGeneric(g)
	}
	return s.end(ok, g.Spec().Name)
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
	s.lastLine = ^uint64(0)
	s.entryCount, s.robPos = 0, 0
	s.headIdx, s.headPos = 0, 0
	s.lastCommit, s.commitCnt = 0, 0
	s.memBusySum, s.memUnion, s.coveredUntil = 0, 0, 0
}

// end completes a run that drove a stream (ok is false when it was
// empty): it attributes the drain tail, folds in the hierarchy
// statistics and validates the counters.
func (s *Simulator) end(ok bool, workload string) error {
	res := s.res
	if ok {
		s.finish()
	}
	s.res, s.ctr, s.tape = nil, nil, nil
	if !ok {
		return fmt.Errorf("sim: empty µop stream for %q", workload)
	}
	if err := res.Counters.Validate(); err != nil {
		return fmt.Errorf("sim: inconsistent counters for %q on %s: %w",
			workload, s.m.Name, err)
	}
	return nil
}

// driveGeneric streams ops one at a time with one-op lookahead for
// fusion — the path for Generator-backed (or any non-Chunked) sources.
// It reports false for an empty stream.
func (s *Simulator) driveGeneric(g trace.Source) bool {
	var cur, nxt trace.MicroOp
	haveNxt := g.Next(&nxt)
	if !haveNxt {
		return false
	}
	for haveNxt {
		cur = nxt
		haveNxt = g.Next(&nxt)
		if cur.FuseHead && haveNxt && fuseHash(cur.PC) < s.fusionRate {
			tail := nxt
			haveNxt = g.Next(&nxt)
			s.step(&cur, &tail)
		} else {
			s.step(&cur, nil)
		}
	}
	return true
}

// driveChunked consumes a Chunked source by iterating its slices
// directly — no interface call or µop copy per op. Fusion lookahead is
// in-slice except at a chunk boundary, where the final op's potential
// partner is the head of the next chunk. The op sequence and fusion
// decisions are exactly driveGeneric's.
func (s *Simulator) driveChunked(c trace.Chunked) bool {
	ops := c.NextChunk()
	if len(ops) == 0 {
		return false
	}
	for {
		last := len(ops) - 1
		i := 0
		for i < last {
			cur := &ops[i]
			if cur.FuseHead && fuseHash(cur.PC) < s.fusionRate {
				s.step(cur, &ops[i+1])
				i += 2
			} else {
				s.step(cur, nil)
				i++
			}
		}
		if i > last {
			// A fused pair consumed the chunk exactly.
			ops = c.NextChunk()
			if len(ops) == 0 {
				return true
			}
			continue
		}
		// Final op of the chunk: copy it out before advancing the cursor
		// (a source may recycle its chunk storage across NextChunk calls).
		carry := ops[last]
		ops = c.NextChunk()
		if carry.FuseHead && len(ops) > 0 && fuseHash(carry.PC) < s.fusionRate {
			s.step(&carry, &ops[0])
			ops = ops[1:]
		} else {
			s.step(&carry, nil)
		}
		if len(ops) == 0 {
			ops = c.NextChunk()
			if len(ops) == 0 {
				return true
			}
		}
	}
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
// access the data hierarchy (or read its outcome from tape word w),
// possibly acquiring an MSHR for memory trips (which can push execStart
// back); the group latency is the max across halves.
func (s *Simulator) doHalf(op *trace.MicroOp, w uint8) {
	var l uint64
	switch op.Kind {
	case trace.KindLoad:
		var r cache.Result
		if s.tape != nil {
			r = s.tapeLoad(w)
		} else {
			r = s.hier.DoLoad(op.Addr)
		}
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
		if s.tape == nil {
			s.hier.DoStore(op.Addr)
		}
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

// resolveBranch trains the predictor (or reads the outcome from tape
// word w) and, on a misprediction, redirects the front end once the
// branch resolves.
func (s *Simulator) resolveBranch(op *trace.MicroOp, complete uint64, w uint8) {
	s.ctr.Branches++
	var miss bool
	if s.tape != nil {
		miss = w&wMispredict != 0
	} else {
		miss = s.pred.PredictUpdate(op.PC, op.Taken) != op.Taken
	}
	if miss {
		s.ctr.BranchMispredicts++
		if redirect := complete + s.frontEnd; redirect > s.nextFetch {
			s.nextFetch = redirect
			s.feReason = CompBranch
		}
		s.lastLine = ^uint64(0) // refetch the target line
	}
}

// fetchStall charges an instruction fetch's ITLB walk and the level it
// was served from.
func (s *Simulator) fetchStall(lvl cache.Level, tlbMiss bool) {
	if tlbMiss {
		s.stall(s.cycle+s.itlbMiss, CompITLB)
	}
	switch lvl {
	case cache.LvlL2:
		s.stall(s.cycle+s.l2Lat, CompICacheL2)
	case cache.LvlL3:
		s.stall(s.cycle+s.l3Lat, CompICacheL3)
	case cache.LvlMem:
		s.stall(s.cycle+s.memLat, CompICacheMem)
	}
}

// step dispatches one µop (with an optional fused tail) and advances
// every machine structure: front end, window occupancy, issue, execute,
// branch resolution, and in-order commit. Ops are read-only — chunked
// sources pass pointers into a backing store shared across concurrent
// simulations.
func (s *Simulator) step(cur, tail *trace.MicroOp) {
	// --- Dispatch-width boundary.
	if s.slots == s.d {
		s.cycle++
		s.slots = 0
	}

	// --- Front-end availability (branch redirects, earlier I-misses).
	if s.nextFetch > s.cycle {
		s.stall(s.nextFetch, s.feReason)
	}

	// --- Instruction-side cache/TLB on fetch-line change.
	if line := cur.PC >> s.lineShift; line != s.lastLine {
		s.lastLine = line
		if s.tape != nil {
			s.fetchStall(cache.Level(s.wCur&wILevel), s.wCur&wITLB != 0)
		} else {
			r := s.hier.DoInstr(cur.PC)
			s.fetchStall(r.Level, r.TLBMiss)
		}
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
	s.doHalf(cur, s.wCur)
	if tail != nil {
		s.doHalf(tail, s.wTail)
	}
	complete := s.execStart + s.lat
	s.iq.push(s.execStart)

	// Branch resolution and misprediction redirect.
	if cur.Kind == trace.KindBranch {
		s.resolveBranch(cur, complete, s.wCur)
	}
	if tail != nil && tail.Kind == trace.KindBranch {
		s.resolveBranch(tail, complete, s.wTail)
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
// folds the hierarchy statistics into the counters.
func (s *Simulator) finish() {
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

	var is, ds *cache.SideStats
	if s.tape != nil {
		is, ds = &s.tape.IStats, &s.tape.DStats
	} else {
		is, ds = &s.hier.IStats, &s.hier.DStats
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
