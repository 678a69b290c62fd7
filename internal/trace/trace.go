// Package trace generates synthetic micro-operation streams that stand in
// for the SPEC CPU2000/CPU2006 binaries the paper runs on real hardware.
//
// A workload is described by a Spec: instruction mix, branch
// predictability, code footprint, data footprint and locality, pointer
// chasing, and register-dependence structure. The generator expands the
// spec into a deterministic, seeded stream of micro-ops with concrete
// program counters, data addresses, branch outcomes, and producer
// distances. A Buffer holds that stream materialized, and is what the
// cycle-level simulator in internal/sim executes.
//
// The same Spec always produces the exact same µop stream, so every
// machine configuration observes the same program — differences in
// counter values across machines come from the hardware, as on real
// silicon.
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"repro/internal/jsonbytes"
	"repro/internal/rng"
)

// Kind classifies a micro-op.
type Kind uint8

// Micro-op kinds.
const (
	KindInt Kind = iota // single-cycle integer ALU
	KindMul             // integer multiply
	KindFP              // floating-point arithmetic
	KindDiv             // long-latency divide
	KindLoad
	KindStore
	KindBranch // conditional branch
	kindCount
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindMul:
		return "mul"
	case KindFP:
		return "fp"
	case KindDiv:
		return "div"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsMem reports whether the kind accesses data memory.
func (k Kind) IsMem() bool { return k == KindLoad || k == KindStore }

// MicroOp is one micro-operation of the canonical (unfused) stream.
type MicroOp struct {
	Seq    uint64 // canonical sequence number, starting at 0
	Kind   Kind
	PC     uint64 // instruction address
	Addr   uint64 // data address (loads/stores only)
	Target uint64 // branch target (branches only)
	Taken  bool   // branch outcome (branches only)

	// Dep1 and Dep2 are backward distances (in canonical sequence numbers)
	// to producer µops; 0 means no register dependence. For loads, Dep1
	// is an address-generation dependence.
	Dep1, Dep2 uint32

	// InstrFirst marks the first µop of a macro-instruction. The number
	// of macro-instructions executed is the count of InstrFirst µops.
	InstrFirst bool

	// FuseHead marks a µop that a fusing machine may merge with its
	// immediate successor (e.g. compare+branch macro-fusion or load+op
	// micro-fusion). The successor is then the FuseTail.
	FuseHead bool
	FuseTail bool
}

// Spec describes a synthetic workload. All fractions are in [0,1].
type Spec struct {
	Name string
	Seed uint64
	// NumOps is the number of canonical µops to generate.
	NumOps int

	// Instruction mix, as fractions of non-branch µops (the remainder are
	// integer ALU ops; branches are emitted by the basic-block structure
	// at a density set by block lengths, roughly one in eight µops).
	// LoadFrac+StoreFrac+FPFrac+MulFrac+DivFrac must be <= 0.95 so some
	// plain integer ops remain.
	LoadFrac  float64
	StoreFrac float64
	FPFrac    float64
	MulFrac   float64
	DivFrac   float64

	// BranchHardFrac is the fraction of *static* branches with
	// near-random outcomes (taken probability drawn in [0.35, 0.65]);
	// the rest are strongly biased (p in [0, 0.08] or [0.92, 1]).
	BranchHardFrac float64

	// CodeFootprint is the static code size in bytes; it determines
	// I-cache and I-TLB behaviour. CodeLocality in [0,1] skews block
	// reuse toward a hot region (1 = tight loop nest, 0 = flat profile).
	CodeFootprint int64
	CodeLocality  float64

	// DataFootprint is the total data working set in bytes; DataLocality
	// in [0,1] skews accesses toward hot lines. PointerChaseFrac is the
	// fraction of loads whose address depends on the previous load
	// (serializing misses and suppressing MLP).
	DataFootprint    int64
	DataLocality     float64
	PointerChaseFrac float64

	// HotBytes, when non-zero, models a uniformly re-referenced resident
	// set at the start of the footprint: a fraction HotFrac of accesses
	// fall uniformly inside it, the rest follow the Zipf tail over the
	// whole footprint. A resident set that straddles two machines' cache
	// capacities is what makes a larger last-level cache remove misses
	// (e.g. art thrashing a 1MB L2 but fitting 4MB; SPEC2006 sets
	// straddling 4MB vs 8MB). HotFrac defaults to 0.9 when HotBytes is
	// set and HotFrac is zero.
	HotBytes int64
	HotFrac  float64

	// DepDistMean is the mean backward distance of register dependences;
	// small values mean long dependence chains and low ILP.
	// LongChainFrac is the fraction of µops chained directly to their
	// predecessor (distance 1), creating serial chains that fill the
	// window and cause dispatch stalls.
	DepDistMean   float64
	LongChainFrac float64

	// FusibleFrac is the fraction of µop pairs marked fusible; fusing
	// machines merge a machine-dependent share of them.
	FusibleFrac float64

	// Phases, when non-empty, makes the workload piecewise-stationary:
	// the stream is split into len(Phases) consecutive segments, each a
	// Frac share of NumOps, and within a segment the data locality,
	// pointer chasing, and branch predictability take that phase's
	// values instead of the spec-wide ones. Stationary workloads (the
	// only kind the generator produced before this field existed) leave
	// Phases empty; their streams and ConfigHashes are unchanged. At
	// least two phases are required when the field is used, and the
	// Frac values must sum to 1.
	Phases []Phase `json:"phases,omitempty"`

	// BurstFrac and BurstLen modulate data accesses with a two-state
	// (calm/burst) Markov process: a BurstFrac share of accesses falls
	// inside bursts of mean length BurstLen accesses, during which
	// addresses scatter uniformly over the whole footprint — clustered
	// cold misses — while calm stretches follow the usual locality
	// draw. This is temporal clustering the stationary Zipf picker
	// cannot express: the same long-run miss ratio arrives in storms
	// that pile up in the MSHRs instead of spreading evenly, stressing
	// the model's steady-state memory-level-parallelism assumption.
	// BurstFrac 0 (the default) disables the modulation and leaves
	// existing streams untouched; when set it must be in (0, 0.9] with
	// BurstLen >= 1.
	BurstFrac float64 `json:"burstFrac,omitempty"`
	BurstLen  float64 `json:"burstLen,omitempty"`

	// Content is the identity override for file-backed workloads: the
	// content hash (hex SHA-256 file checksum) of the trace file the
	// spec was read from. It folds into ConfigHash, so two files that
	// declare identical generation parameters but carry different µop
	// streams can never collide in content-addressed caches. Generated
	// workloads leave it empty; Decode sets it.
	Content string `json:"content,omitempty"`

	// SourceFile is the path of the trace file backing this spec, set
	// by ReadFile/ReadFileSpec. It is deliberately excluded from JSON
	// (and therefore from ConfigHash): moving or copying a trace file
	// must not change the identity of its runs — Content carries that.
	SourceFile string `json:"-"`
}

// MaxPhases bounds how many piecewise-stationary segments a spec may
// declare; a phase schedule longer than this is a malformed file, not a
// workload.
const MaxPhases = 64

// Phase is one piecewise-stationary segment of a phase-changing
// workload. Each phase fully specifies its behavioural knobs — there is
// no inheritance from the spec-wide values, so a phase schedule reads
// as a table of regimes.
type Phase struct {
	// Frac is this phase's share of NumOps, in (0,1]; all phases must
	// sum to 1. Segment boundaries land on whole µops (rounded), with
	// the last phase absorbing the remainder.
	Frac float64 `json:"frac"`
	// DataLocality replaces Spec.DataLocality within the phase.
	DataLocality float64 `json:"dataLocality"`
	// PointerChaseFrac replaces Spec.PointerChaseFrac within the phase.
	PointerChaseFrac float64 `json:"pointerChaseFrac"`
	// BranchNoise is the fraction of this phase's branch executions
	// whose outcome is re-drawn 50/50, degrading predictability without
	// touching the static program: 0 keeps each block's bias, 1 makes
	// every branch a coin flip.
	BranchNoise float64 `json:"branchNoise"`
}

// ConfigHash returns a stable content hash of the workload description:
// the sha256 of the spec's JSON (AppendJSON). Because the generator is
// a pure function of the Spec, equal hashes mean identical µop streams;
// the hash therefore identifies the workload in content-addressed
// caches of simulation results. A NaN or infinite float panics.
func (s Spec) ConfigHash() string {
	var buf [1024]byte
	b, err := s.AppendJSON(buf[:0])
	if err != nil {
		panic(fmt.Sprintf("trace: hash %s: %v", s.Name, err))
	}
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// AppendJSON appends the bytes json.Marshal(s) writes, without
// reflection: every field in declaration order under its JSON name,
// the omitempty fields (phases, burstFrac, burstLen, content) left out
// when empty, SourceFile never. Floats and strings are spelled as
// encoding/json spells them (package jsonbytes). A NaN or infinite
// float is an error, as in encoding/json.
func (s *Spec) AppendJSON(b []byte) ([]byte, error) {
	finite := true
	float := func(key string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite, v = false, 0
		}
		b = jsonbytes.AppendFloat(append(b, key...), v)
	}
	integer := func(key string, v int64) {
		b = strconv.AppendInt(append(b, key...), v, 10)
	}
	b = jsonbytes.AppendString(append(b, `{"Name":`...), s.Name)
	b = strconv.AppendUint(append(b, `,"Seed":`...), s.Seed, 10)
	integer(`,"NumOps":`, int64(s.NumOps))
	float(`,"LoadFrac":`, s.LoadFrac)
	float(`,"StoreFrac":`, s.StoreFrac)
	float(`,"FPFrac":`, s.FPFrac)
	float(`,"MulFrac":`, s.MulFrac)
	float(`,"DivFrac":`, s.DivFrac)
	float(`,"BranchHardFrac":`, s.BranchHardFrac)
	integer(`,"CodeFootprint":`, s.CodeFootprint)
	float(`,"CodeLocality":`, s.CodeLocality)
	integer(`,"DataFootprint":`, s.DataFootprint)
	float(`,"DataLocality":`, s.DataLocality)
	float(`,"PointerChaseFrac":`, s.PointerChaseFrac)
	integer(`,"HotBytes":`, s.HotBytes)
	float(`,"HotFrac":`, s.HotFrac)
	float(`,"DepDistMean":`, s.DepDistMean)
	float(`,"LongChainFrac":`, s.LongChainFrac)
	float(`,"FusibleFrac":`, s.FusibleFrac)
	if len(s.Phases) > 0 {
		b = append(b, `,"phases":[`...)
		for i, p := range s.Phases {
			if i > 0 {
				b = append(b, ',')
			}
			float(`{"frac":`, p.Frac)
			float(`,"dataLocality":`, p.DataLocality)
			float(`,"pointerChaseFrac":`, p.PointerChaseFrac)
			float(`,"branchNoise":`, p.BranchNoise)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if s.BurstFrac != 0 {
		float(`,"burstFrac":`, s.BurstFrac)
	}
	if s.BurstLen != 0 {
		float(`,"burstLen":`, s.BurstLen)
	}
	if s.Content != "" {
		b = jsonbytes.AppendString(append(b, `,"content":`...), s.Content)
	}
	if !finite {
		return nil, fmt.Errorf("trace: spec %s has a NaN or infinite field", s.Name)
	}
	return append(b, '}'), nil
}

// Validate checks the spec for consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("trace: spec has no name")
	}
	if s.NumOps <= 0 {
		return fmt.Errorf("trace: %s: NumOps must be positive", s.Name)
	}
	mix := s.LoadFrac + s.StoreFrac + s.FPFrac + s.MulFrac + s.DivFrac
	if mix > 0.95 {
		return fmt.Errorf("trace: %s: instruction mix sums to %.2f > 0.95", s.Name, mix)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", s.LoadFrac}, {"StoreFrac", s.StoreFrac}, {"FPFrac", s.FPFrac},
		{"MulFrac", s.MulFrac}, {"DivFrac", s.DivFrac},
		{"BranchHardFrac", s.BranchHardFrac}, {"CodeLocality", s.CodeLocality},
		{"DataLocality", s.DataLocality}, {"PointerChaseFrac", s.PointerChaseFrac},
		{"LongChainFrac", s.LongChainFrac}, {"FusibleFrac", s.FusibleFrac},
		{"HotFrac", s.HotFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("trace: %s: %s=%v outside [0,1]", s.Name, f.name, f.v)
		}
	}
	if s.CodeFootprint < 1024 {
		return fmt.Errorf("trace: %s: code footprint %d too small", s.Name, s.CodeFootprint)
	}
	if s.DataFootprint < 4096 {
		return fmt.Errorf("trace: %s: data footprint %d too small", s.Name, s.DataFootprint)
	}
	if s.DepDistMean < 1 {
		return fmt.Errorf("trace: %s: DepDistMean must be >= 1", s.Name)
	}
	if s.HotBytes < 0 || s.HotBytes > s.DataFootprint {
		return fmt.Errorf("trace: %s: HotBytes %d outside [0, footprint]", s.Name, s.HotBytes)
	}
	if len(s.Phases) == 1 {
		return fmt.Errorf("trace: %s: a phase-changing spec needs at least two phases", s.Name)
	}
	if len(s.Phases) > MaxPhases {
		return fmt.Errorf("trace: %s: %d phases exceed the %d-phase cap", s.Name, len(s.Phases), MaxPhases)
	}
	if len(s.Phases) > 0 {
		sum := 0.0
		for i, p := range s.Phases {
			if p.Frac <= 0 || p.Frac > 1 {
				return fmt.Errorf("trace: %s: phase %d Frac=%v outside (0,1]", s.Name, i, p.Frac)
			}
			for _, f := range []struct {
				name string
				v    float64
			}{
				{"DataLocality", p.DataLocality},
				{"PointerChaseFrac", p.PointerChaseFrac},
				{"BranchNoise", p.BranchNoise},
			} {
				if f.v < 0 || f.v > 1 {
					return fmt.Errorf("trace: %s: phase %d %s=%v outside [0,1]", s.Name, i, f.name, f.v)
				}
			}
			sum += p.Frac
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("trace: %s: phase fractions sum to %v, want 1", s.Name, sum)
		}
	}
	if s.BurstFrac < 0 || s.BurstFrac > 0.9 {
		return fmt.Errorf("trace: %s: BurstFrac=%v outside [0, 0.9]", s.Name, s.BurstFrac)
	}
	if s.BurstFrac > 0 && s.BurstLen < 1 {
		return fmt.Errorf("trace: %s: BurstLen=%v must be >= 1 when BurstFrac is set", s.Name, s.BurstLen)
	}
	if s.BurstFrac == 0 && s.BurstLen != 0 {
		return fmt.Errorf("trace: %s: BurstLen=%v without BurstFrac", s.Name, s.BurstLen)
	}
	return nil
}

// depProb returns the geometric success probability of the producer-
// distance draw: the reciprocal mean, clamped to a valid probability.
func (s *Spec) depProb() float64 {
	p := 1 / s.DepDistMean
	if p > 1 {
		p = 1
	}
	return p
}

// Layout constants for synthetic address spaces.
const (
	codeBase   = 0x0040_0000 // where synthetic code is laid out
	dataBase   = 0x1000_0000 // where the data working set is laid out
	bytesPerOp = 4           // static bytes per µop in the code layout
	lineBytes  = 64          // data line granularity for locality
)

// Buffer is a materialized µop stream, the simulator's only input: the
// whole sequence a Generator would emit (or a trace file holds),
// expanded once into memory and replayed from there. A Buffer is
// bit-identical to the generating stream (it is that stream, recorded),
// and every cursor over it replays that exact stream, so one workload
// runs on many machine configurations and every machine observes the
// same program. Replay skips the RNG and block-walk work entirely, which
// is what makes a grid of machines over one workload cheaper than
// regenerating the trace per machine.
//
// The ops backing store is shared and immutable; a Buffer itself is a
// cursor (not safe for concurrent use), and Replay returns additional
// independent cursors over the same backing store for concurrent
// machines.
type Buffer struct {
	spec Spec
	ops  []MicroOp
	pos  int
}

// Materialize expands the spec's entire stream through a fresh
// Generator. It panics if the spec is invalid, exactly as New does;
// call Validate first for graceful handling.
func Materialize(spec Spec) *Buffer {
	return MaterializeInto(spec, nil)
}

// MaterializeInto is Materialize recycling a previously released
// backing store: when ops has capacity it is truncated and refilled in
// place, otherwise a fresh store is allocated. The caller must own ops
// exclusively — recycle a buffer's store only after every cursor over
// it is done (the plan engine recycles a workload's buffer once its
// last machine finishes). The produced stream is identical either way.
func MaterializeInto(spec Spec, ops []MicroOp) *Buffer {
	g := New(spec)
	if cap(ops) < spec.NumOps {
		ops = make([]MicroOp, 0, spec.NumOps)
	}
	ops = ops[:0]
	var op MicroOp
	for g.Next(&op) {
		ops = append(ops, op)
	}
	return &Buffer{spec: spec, ops: ops}
}

// Spec returns the workload specification.
func (b *Buffer) Spec() Spec { return b.spec }

// NumOps returns the stream length.
func (b *Buffer) NumOps() int { return len(b.ops) }

// Reset restarts this cursor from the beginning.
func (b *Buffer) Reset() { b.pos = 0 }

// Next fills op with the next µop and returns true, or returns false
// when the stream is exhausted.
func (b *Buffer) Next(op *MicroOp) bool {
	if b.pos >= len(b.ops) {
		return false
	}
	*op = b.ops[b.pos]
	b.pos++
	return true
}

// NextChunk returns the whole remaining stream as one immutable slice
// view and advances the cursor to the end: the simulator iterates it in
// place instead of paying an interface call and a µop copy per op. The
// slice aliases the shared backing store and stays valid until the
// store is released.
func (b *Buffer) NextChunk() []MicroOp {
	if b.pos >= len(b.ops) {
		return nil
	}
	out := b.ops[b.pos:]
	b.pos = len(b.ops)
	return out
}

// Replay returns a fresh cursor over the same materialized stream,
// positioned at the start. Cursors share the immutable backing store,
// so concurrent simulations of one workload on different machines cost
// one materialization total.
func (b *Buffer) Replay() *Buffer {
	return &Buffer{spec: b.spec, ops: b.ops}
}

// ReleaseOps detaches the buffer's backing store and returns it for
// recycling through MaterializeInto. The caller must be done with every
// cursor over the buffer: the returned slice is the live store those
// cursors alias, and refilling it overwrites their stream. The buffer
// itself reads as exhausted afterwards.
func (b *Buffer) ReleaseOps() []MicroOp {
	ops := b.ops
	b.ops = nil
	b.pos = 0
	return ops
}

// block is a static basic block of the synthetic program.
type block struct {
	startPC   uint64
	numOps    int
	takenProb float64
	target    int // target block index when the terminating branch is taken
}

// Generator streams the µop sequence of one workload. Not safe for
// concurrent use; create one per goroutine.
type Generator struct {
	spec   Spec
	blocks []block

	r             *rng.RNG
	emitted       int
	blockIdx      int
	opInBlk       int
	lastLoad      uint64 // canonical seq of the most recent load
	hasLoad       bool
	opsSinceInstr int
	fuseArmed     bool // previous µop was a FuseHead

	// data regions: hot/cold split of the footprint in lines.
	dataLines int
	hotLines  int
	hotFrac   float64

	// Precomputed distribution constants for the per-µop draws. All are
	// pure functions of the Spec, hoisted out of the hot loop: the drawn
	// variates are bit-identical to computing them from scratch (see
	// rng.NewZipf/rng.NewGeometric), the stream is unchanged.
	dataZipf rng.ZipfDist      // pickDataLine's cold-path line skew
	depGeo   rng.GeometricDist // assignDeps' producer-distance draw
	kindCum  [5]float64        // pickKind's cumulative mix thresholds

	// Phase-changing workloads (Spec.Phases): the active phase's knobs
	// are copied into cur* on each boundary crossing, so the hot loop
	// reads one field instead of indexing the schedule. Stationary
	// specs load cur* once from the spec-wide values and never pay a
	// phase check beyond the `phased` bool.
	phased      bool
	phaseIdx    int
	phaseEnd    int            // first µop of the next phase (NumOps for the last)
	phaseBounds []int          // cumulative segment boundaries, one per phase
	phaseZipf   []rng.ZipfDist // per-phase cold-path line skew
	curZipf     rng.ZipfDist   // active cold-path line skew
	curChase    float64        // active pointer-chase fraction
	curNoise    float64        // active branch-outcome noise

	// Bursty workloads (Spec.BurstFrac): two-state modulation of the
	// data-access stream. stateLeft counts accesses remaining in the
	// current state; burstGeo/calmGeo draw the next dwell lengths.
	bursty    bool
	inBurst   bool
	stateLeft int
	burstGeo  rng.GeometricDist
	calmGeo   rng.GeometricDist
}

// New constructs a generator for the spec. It panics if the spec is
// invalid; call Validate first for graceful handling.
func New(spec Spec) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{spec: spec}
	g.buildProgram()
	g.Reset()
	return g
}

// buildProgram lays out the static basic blocks deterministically from
// the seed. Block structure is part of the program, not the dynamic
// stream, so it uses a dedicated RNG stream (seed^const).
func (g *Generator) buildProgram() {
	r := rng.New(g.spec.Seed ^ 0x9e3779b97f4a7c15)
	// Average block ~8 µops → blockBytes ~32.
	nBlocks := int(g.spec.CodeFootprint / (8 * bytesPerOp))
	if nBlocks < 4 {
		nBlocks = 4
	}
	g.blocks = make([]block, nBlocks)
	pc := uint64(codeBase)
	codeZipf := rng.NewZipf(nBlocks, 0.3+1.4*g.spec.CodeLocality)
	for i := range g.blocks {
		n := 4 + r.Intn(9) // 4..12 µops
		var p float64
		if r.Float64() < g.spec.BranchHardFrac {
			p = 0.35 + 0.3*r.Float64() // hard-to-predict
		} else if r.Bool(0.5) {
			p = 0.08 * r.Float64() // strongly not-taken
		} else {
			p = 1 - 0.08*r.Float64() // strongly taken
		}
		// Taken targets are Zipf-skewed toward low block indices: a hot
		// loop region at the start of the code, colder code later. The
		// skew grows with CodeLocality; coefficients are tuned so that
		// large-code workloads (gcc-like, MBs of text at locality ~0.5)
		// spill out of a 32KB L1I at a realistic rate while tight kernels
		// (locality ~0.9) stay resident.
		target := codeZipf.Next(r)
		g.blocks[i] = block{startPC: pc, numOps: n, takenProb: p, target: target}
		pc += uint64(n * bytesPerOp)
	}
	g.dataLines = int(g.spec.DataFootprint / lineBytes)
	if g.dataLines < 16 {
		g.dataLines = 16
	}
	if g.spec.HotBytes > 0 {
		g.hotLines = int(g.spec.HotBytes / lineBytes)
		if g.hotLines < 1 {
			g.hotLines = 1
		}
		g.hotFrac = g.spec.HotFrac
		if g.hotFrac == 0 {
			g.hotFrac = 0.9
		}
	}

	// Hoist the per-µop draw constants (identical values to computing
	// them inline; see pickDataLine, pickKind and assignDeps).
	s := &g.spec
	g.dataZipf = rng.NewZipf(g.dataLines, 1.05+0.85*s.DataLocality)
	g.depGeo = rng.NewGeometric(s.depProb())
	g.kindCum = [5]float64{
		s.LoadFrac,
		s.LoadFrac + s.StoreFrac,
		s.LoadFrac + s.StoreFrac + s.FPFrac,
		s.LoadFrac + s.StoreFrac + s.FPFrac + s.MulFrac,
		s.LoadFrac + s.StoreFrac + s.FPFrac + s.MulFrac + s.DivFrac,
	}

	// Phase schedule: cumulative boundaries in µops (the last phase
	// absorbs rounding remainder) and a pre-built Zipf per phase so
	// boundary crossings are copies, not allocations.
	if len(s.Phases) > 0 {
		g.phased = true
		g.phaseBounds = make([]int, len(s.Phases))
		g.phaseZipf = make([]rng.ZipfDist, len(s.Phases))
		cum := 0.0
		for i, p := range s.Phases {
			cum += p.Frac
			g.phaseBounds[i] = int(math.Round(cum * float64(s.NumOps)))
			g.phaseZipf[i] = rng.NewZipf(g.dataLines, 1.05+0.85*p.DataLocality)
		}
		g.phaseBounds[len(s.Phases)-1] = s.NumOps
	}

	// Burst modulation: dwell lengths are 1+geometric draws, so the
	// burst-state mean is BurstLen and the calm-state mean is sized to
	// make bursts a BurstFrac share of accesses in the long run.
	if s.BurstFrac > 0 {
		g.bursty = true
		g.burstGeo = rng.NewGeometric(1 / s.BurstLen)
		calmP := s.BurstFrac / (s.BurstLen * (1 - s.BurstFrac))
		if calmP > 1 {
			calmP = 1
		}
		g.calmGeo = rng.NewGeometric(calmP)
	}
}

// Reset restarts the dynamic stream from the beginning. The static
// program layout is preserved, so the regenerated stream is identical.
func (g *Generator) Reset() {
	g.r = rng.New(g.spec.Seed)
	g.emitted = 0
	g.blockIdx = 0
	g.opInBlk = 0
	g.lastLoad = 0
	g.hasLoad = false
	g.opsSinceInstr = 0
	g.fuseArmed = false
	if g.phased {
		g.phaseIdx = 0
		g.phaseEnd = g.phaseBounds[0]
		g.curZipf = g.phaseZipf[0]
		g.curChase = g.spec.Phases[0].PointerChaseFrac
		g.curNoise = g.spec.Phases[0].BranchNoise
	} else {
		g.curZipf = g.dataZipf
		g.curChase = g.spec.PointerChaseFrac
		g.curNoise = 0
	}
	if g.bursty {
		// Start in a calm stretch; the dwell draw comes from the fresh
		// stream RNG, so Reset reproduces the identical modulation.
		g.inBurst = false
		g.stateLeft = g.calmGeo.Next(g.r) + 1
	}
}

// Next fills op with the next µop and returns true, or returns false when
// the stream is exhausted.
func (g *Generator) Next(op *MicroOp) bool {
	if g.emitted >= g.spec.NumOps {
		return false
	}
	s := &g.spec
	if g.phased && g.emitted >= g.phaseEnd {
		for g.phaseIdx+1 < len(g.phaseBounds) && g.emitted >= g.phaseEnd {
			g.phaseIdx++
			g.phaseEnd = g.phaseBounds[g.phaseIdx]
		}
		p := &s.Phases[g.phaseIdx]
		g.curZipf = g.phaseZipf[g.phaseIdx]
		g.curChase = p.PointerChaseFrac
		g.curNoise = p.BranchNoise
	}
	blk := &g.blocks[g.blockIdx]

	*op = MicroOp{
		Seq: uint64(g.emitted),
		PC:  blk.startPC + uint64(g.opInBlk*bytesPerOp),
	}

	lastInBlock := g.opInBlk == blk.numOps-1
	if lastInBlock {
		// Terminating conditional branch of the block.
		op.Kind = KindBranch
		op.Taken = g.r.Bool(blk.takenProb)
		if g.phased && g.r.Bool(g.curNoise) {
			// Phase noise re-draws the outcome 50/50 *before* target
			// selection, so the target stays consistent with Taken. The
			// draws are gated on phased: stationary streams are untouched.
			op.Taken = g.r.Bool(0.5)
		}
		if op.Taken {
			op.Target = g.blocks[blk.target].startPC
		} else {
			next := (g.blockIdx + 1) % len(g.blocks)
			op.Target = g.blocks[next].startPC
		}
	} else {
		op.Kind = g.pickKind()
	}

	// Data address for memory ops.
	if op.Kind.IsMem() {
		line := g.pickDataLine()
		off := uint64(g.r.Intn(lineBytes/8) * 8)
		op.Addr = dataBase + uint64(line)*lineBytes + off
	}

	// Register dependences.
	g.assignDeps(op)

	// Macro-instruction boundaries: roughly 1.5 canonical µops per
	// instruction (NetBurst-style cracking); memory ops tend to start
	// instructions (load+op pairs).
	if g.opsSinceInstr == 0 {
		op.InstrFirst = true
		g.opsSinceInstr = 1
		if g.r.Bool(0.5) {
			g.opsSinceInstr = 0 // single-µop instruction
		}
	} else {
		g.opsSinceInstr = 0
	}

	// Fusibility: mark head/tail pairs (never across a branch target,
	// which in this synthetic layout means never across blocks).
	if op.FuseTail = g.pendingFuseTail(); !op.FuseTail {
		if !lastInBlock && g.r.Bool(s.FusibleFrac) {
			op.FuseHead = true
			g.fuseArmed = true
		}
	}

	if op.Kind == KindLoad {
		g.lastLoad = op.Seq
		g.hasLoad = true
	}

	// Advance program position.
	if lastInBlock {
		if op.Taken {
			g.blockIdx = blk.target
		} else {
			g.blockIdx = (g.blockIdx + 1) % len(g.blocks)
		}
		g.opInBlk = 0
	} else {
		g.opInBlk++
	}
	g.emitted++
	return true
}

func (g *Generator) pendingFuseTail() bool {
	if g.fuseArmed {
		g.fuseArmed = false
		return true
	}
	return false
}

// pickKind draws a non-branch µop kind from the mix. The cumulative
// thresholds are hoisted into kindCum (same sums, same comparison
// order), so the hot path is threshold compares only.
func (g *Generator) pickKind() Kind {
	u := g.r.Float64()
	c := &g.kindCum
	switch {
	case u < c[0]:
		return KindLoad
	case u < c[1]:
		return KindStore
	case u < c[2]:
		return KindFP
	case u < c[3]:
		return KindMul
	case u < c[4]:
		return KindDiv
	default:
		return KindInt
	}
}

// pickDataLine selects a data line index with Zipf locality. The skew
// mapping is calibrated so that even "low locality" workloads reuse most
// of their accesses (as real programs do): at locality 0.12 over a
// ~500MB footprint roughly 10% of accesses fall outside a 4MB hot set
// (mcf-like LLC miss rates of tens per thousand instructions), while at
// locality 0.85 the working set is cache-resident. The gap between the
// beyond-4MB and beyond-8MB tails is what lets a larger last-level
// cache remove misses (the paper's Core i7 observation).
func (g *Generator) pickDataLine() int {
	if g.bursty {
		if g.stateLeft <= 0 {
			g.inBurst = !g.inBurst
			if g.inBurst {
				g.stateLeft = g.burstGeo.Next(g.r) + 1
			} else {
				g.stateLeft = g.calmGeo.Next(g.r) + 1
			}
		}
		g.stateLeft--
		if g.inBurst {
			// Burst state: scatter uniformly over the whole footprint —
			// a storm of cold lines clustered in time.
			return g.r.Intn(g.dataLines)
		}
	}
	if g.hotLines > 0 && g.r.Bool(g.hotFrac) {
		return g.r.Intn(g.hotLines)
	}
	// curZipf is dataZipf for stationary specs (same draws) and the
	// active phase's skew for phase-changing ones.
	return g.curZipf.Next(g.r)
}

// assignDeps draws producer distances for op.
func (g *Generator) assignDeps(op *MicroOp) {
	s := &g.spec
	seq := op.Seq
	maxDist := seq // cannot reach before the stream start
	if maxDist == 0 {
		return
	}
	draw := func() uint32 {
		if g.r.Bool(s.LongChainFrac) {
			return 1
		}
		// Geometric with the requested mean (success probability hoisted
		// into depGeo), clamped to the window-ish range [1, 96] so
		// dependences stay plausible.
		d := uint32(g.depGeo.Next(g.r)) + 1
		if d > 96 {
			d = 96
		}
		return d
	}
	clamp := func(d uint32) uint32 {
		if uint64(d) > maxDist {
			return uint32(maxDist)
		}
		return d
	}

	if op.Kind == KindLoad && g.hasLoad && g.r.Bool(g.curChase) {
		// Pointer chase: address depends on the most recent load.
		d := seq - g.lastLoad
		if d >= 1 && d <= 256 {
			op.Dep1 = uint32(d)
		} else {
			op.Dep1 = clamp(draw())
		}
	} else {
		op.Dep1 = clamp(draw())
	}
	// Second source operand with 40% probability (stores always have a
	// data operand besides the address).
	if op.Kind == KindStore || g.r.Bool(0.4) {
		op.Dep2 = clamp(draw())
	}
}
