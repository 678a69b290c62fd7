// Package uarch defines micro-architecture configurations for the
// simulated machines. The three stock configurations mirror the paper's
// Table 1 and Table 2: a Pentium 4-like deep/narrow NetBurst core, a
// Core 2-like wide/shallow core with a large L2, and a Core i7-like core
// with a three-level cache hierarchy.
//
// These configurations feed two consumers: the cycle-level simulator in
// internal/sim (which plays the role of the real hardware) and the
// mechanistic-empirical model in internal/core (which only sees the
// "machine parameters" a modeler would know: dispatch width, front-end
// depth, and the cache/TLB/memory latencies from Table 2).
package uarch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"repro/internal/jsonbytes"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size
	Assoc     int // set associativity
	LatCycles int // access latency on hit at this level (cycles, load-to-use)
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Assoc == 0 {
		return 0
	}
	return c.SizeBytes / (c.LineBytes * c.Assoc)
}

// Valid checks geometric consistency.
func (c CacheConfig) Valid() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("uarch: cache config has non-positive geometry: %+v", c)
	}
	if c.SizeBytes/c.LineBytes > maxCacheLines || c.LineBytes > maxLineBytes || c.Assoc > maxAssoc ||
		c.LatCycles > maxLatency {
		return fmt.Errorf("uarch: cache config exceeds %d lines of at most %d bytes, %d ways or %d cycles: %+v",
			maxCacheLines, maxLineBytes, maxAssoc, maxLatency, c)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("uarch: cache size %d not divisible by line*assoc", c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("uarch: cache sets %d not a power of two", s)
	}
	return nil
}

// TLBConfig describes a TLB.
type TLBConfig struct {
	Entries   int
	PageBytes int
	MissLat   int // page-walk latency in cycles (Table 2 "TLB" column)
}

// PredictorKind selects the branch predictor implementation.
type PredictorKind int

// Predictor kinds.
const (
	PredBimodal PredictorKind = iota
	PredGshare
	PredTournament
)

func (k PredictorKind) String() string {
	switch k {
	case PredBimodal:
		return "bimodal"
	case PredGshare:
		return "gshare"
	case PredTournament:
		return "tournament"
	default:
		return fmt.Sprintf("PredictorKind(%d)", int(k))
	}
}

// PrefetchConfig describes an optional stride prefetcher attached to the
// L2 cache (a Core/Nehalem-era "streamer"). Disabled in the stock
// machine configurations so the documented paper numbers are exactly
// reproducible; enable it to explore its effect (see the prefetch
// ablation bench and example).
type PrefetchConfig struct {
	Enabled bool
	Streams int // stream-table entries (power of two)
	Degree  int // lines prefetched per confident trigger
}

// PredictorConfig describes the branch predictor.
type PredictorConfig struct {
	Kind        PredictorKind
	TableBits   int // log2 of pattern table entries
	HistoryBits int // global history length (gshare/tournament)
}

// Machine is a complete micro-architecture description.
type Machine struct {
	Name string

	// Core.
	DispatchWidth int // D in Eq. 1 (dispatch = front-end exit width)
	IssueWidth    int
	CommitWidth   int
	FrontEndDepth int // c_fe: branch misprediction front-end refill penalty
	ROBSize       int
	IQSize        int
	LoadQueueSize int
	MSHRs         int // outstanding misses to memory (bounds achievable MLP)

	// Functional unit latencies (cycles).
	IntLat   int
	MulLat   int
	FPLat    int
	DivLat   int
	LoadAGU  int // address-generation cycles before cache access
	StoreLat int

	// Memory hierarchy. L3 is optional (SizeBytes==0 means absent).
	L1I, L1D, L2, L3 CacheConfig
	MemLat           int // main memory access latency (cycles)
	ITLB, DTLB       TLBConfig

	Predictor PredictorConfig
	Prefetch  PrefetchConfig

	// FusionRate is the fraction of fusible µop pairs the decoder
	// actually fuses into a single dispatched/committed µop
	// (micro-/macro-fusion). NetBurst fuses nothing; Core/Nehalem fuse
	// increasingly — the paper's "µop fusion" delta-stack component.
	FusionRate float64
}

// ConfigHash returns a stable content hash of the complete configuration:
// the sha256 of its JSON (AppendJSON). Two machines hash equal iff every
// architectural parameter is equal, so the hash can key caches of
// simulation results: any config change yields a new hash and therefore
// a cold cache entry, never a stale hit. A new field must be added to
// AppendJSON, or TestMachineKeyCoversEveryField fails.
func (m *Machine) ConfigHash() string {
	var buf [1024]byte
	b, err := m.AppendJSON(buf[:0])
	if err != nil {
		panic(fmt.Sprintf("uarch: hash %s: %v", m.Name, err))
	}
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// AppendJSON appends the bytes json.Marshal(m) writes, without
// reflection: every field in declaration order under its Go name, the
// name and FusionRate spelled as encoding/json spells them (package
// jsonbytes). A NaN or infinite FusionRate is an error, as in
// encoding/json.
func (m *Machine) AppendJSON(b []byte) ([]byte, error) {
	if math.IsNaN(m.FusionRate) || math.IsInf(m.FusionRate, 0) {
		return nil, fmt.Errorf("uarch: machine %s has a NaN or infinite FusionRate", m.Name)
	}
	integer := func(key string, v int) {
		b = strconv.AppendInt(append(b, key...), int64(v), 10)
	}
	cache := func(key string, c CacheConfig) {
		b = append(b, key...)
		integer(`{"SizeBytes":`, c.SizeBytes)
		integer(`,"LineBytes":`, c.LineBytes)
		integer(`,"Assoc":`, c.Assoc)
		integer(`,"LatCycles":`, c.LatCycles)
		b = append(b, '}')
	}
	tlb := func(key string, t TLBConfig) {
		b = append(b, key...)
		integer(`{"Entries":`, t.Entries)
		integer(`,"PageBytes":`, t.PageBytes)
		integer(`,"MissLat":`, t.MissLat)
		b = append(b, '}')
	}
	b = jsonbytes.AppendString(append(b, `{"Name":`...), m.Name)
	integer(`,"DispatchWidth":`, m.DispatchWidth)
	integer(`,"IssueWidth":`, m.IssueWidth)
	integer(`,"CommitWidth":`, m.CommitWidth)
	integer(`,"FrontEndDepth":`, m.FrontEndDepth)
	integer(`,"ROBSize":`, m.ROBSize)
	integer(`,"IQSize":`, m.IQSize)
	integer(`,"LoadQueueSize":`, m.LoadQueueSize)
	integer(`,"MSHRs":`, m.MSHRs)
	integer(`,"IntLat":`, m.IntLat)
	integer(`,"MulLat":`, m.MulLat)
	integer(`,"FPLat":`, m.FPLat)
	integer(`,"DivLat":`, m.DivLat)
	integer(`,"LoadAGU":`, m.LoadAGU)
	integer(`,"StoreLat":`, m.StoreLat)
	cache(`,"L1I":`, m.L1I)
	cache(`,"L1D":`, m.L1D)
	cache(`,"L2":`, m.L2)
	cache(`,"L3":`, m.L3)
	integer(`,"MemLat":`, m.MemLat)
	tlb(`,"ITLB":`, m.ITLB)
	tlb(`,"DTLB":`, m.DTLB)
	integer(`,"Predictor":{"Kind":`, int(m.Predictor.Kind))
	integer(`,"TableBits":`, m.Predictor.TableBits)
	integer(`,"HistoryBits":`, m.Predictor.HistoryBits)
	b = strconv.AppendBool(append(b, `},"Prefetch":{"Enabled":`...), m.Prefetch.Enabled)
	integer(`,"Streams":`, m.Prefetch.Streams)
	integer(`,"Degree":`, m.Prefetch.Degree)
	b = jsonbytes.AppendFloat(append(b, `},"FusionRate":`...), m.FusionRate)
	return append(b, '}'), nil
}

// WalkKey is the part of a machine the miss-event walk reads: the
// geometry of every cache, the TLB sizes, the branch predictor, the
// prefetcher and the fusion rate. Machines with equal WalkKeys see the
// same hits, misses, mispredictions and fused pairs on any trace, so
// one walk of the trace serves all of them. Every latency is left out:
// it only prices an outcome, it never changes one. A WalkKey is
// comparable and keys maps directly; Validate rejects a NaN fusion
// rate, so a valid machine's key always equals itself.
type WalkKey struct {
	l1i, l1d, l2, l3 geometry
	itlb, dtlb       pages
	predictor        PredictorConfig
	prefetch         PrefetchConfig
	fusionRate       float64
}

type geometry struct{ sizeBytes, lineBytes, assoc int }

type pages struct{ entries, pageBytes int }

// WalkKey returns the fields of m the miss-event walk reads.
func (m *Machine) WalkKey() WalkKey {
	geo := func(c CacheConfig) geometry { return geometry{c.SizeBytes, c.LineBytes, c.Assoc} }
	return WalkKey{
		geo(m.L1I), geo(m.L1D), geo(m.L2), geo(m.L3),
		pages{m.ITLB.Entries, m.ITLB.PageBytes}, pages{m.DTLB.Entries, m.DTLB.PageBytes},
		m.Predictor, m.Prefetch, m.FusionRate,
	}
}

// HasL3 reports whether the machine has a third cache level.
func (m *Machine) HasL3() bool { return m.L3.SizeBytes > 0 }

// LLCLoadMissLat returns the latency a demand load pays on a last-level
// cache miss (the model's c_mem).
func (m *Machine) LLCLoadMissLat() int { return m.MemLat }

// Upper bounds of a valid machine, far above every modelled one. The
// simulator allocates the ROB, the MSHR heap, and the cache and TLB
// arrays at these sizes and scans a set's ways on every access, so the
// bounds keep any machine a request can derive within memory and time;
// latencies are bounded so cycle counts cannot overflow.
const (
	maxWidth      = 64
	maxWindow     = 1 << 16 // ROB, IQ, load queue, MSHRs
	maxLatency    = 1 << 16 // cycles: front-end depth and memory latencies
	maxCacheLines = 1 << 20
	maxLineBytes  = 1 << 12
	maxAssoc      = 256
	maxTLBEntries = 1 << 16
)

// Validate checks internal consistency of the configuration.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("uarch: machine has no name")
	}
	if m.DispatchWidth <= 0 || m.IssueWidth <= 0 || m.CommitWidth <= 0 {
		return fmt.Errorf("uarch: %s: non-positive width", m.Name)
	}
	if m.FrontEndDepth <= 0 {
		return fmt.Errorf("uarch: %s: non-positive front-end depth", m.Name)
	}
	if m.ROBSize <= 0 || m.IQSize <= 0 {
		return fmt.Errorf("uarch: %s: non-positive window sizes", m.Name)
	}
	if m.IQSize > m.ROBSize {
		return fmt.Errorf("uarch: %s: IQ (%d) larger than ROB (%d)", m.Name, m.IQSize, m.ROBSize)
	}
	if m.MSHRs <= 0 {
		return fmt.Errorf("uarch: %s: need at least one MSHR", m.Name)
	}
	for _, b := range []struct {
		name   string
		v, max int
	}{
		{"dispatch width", m.DispatchWidth, maxWidth},
		{"issue width", m.IssueWidth, maxWidth},
		{"commit width", m.CommitWidth, maxWidth},
		{"front-end depth", m.FrontEndDepth, maxLatency},
		{"ROB size", m.ROBSize, maxWindow},
		{"load queue size", m.LoadQueueSize, maxWindow},
		{"MSHRs", m.MSHRs, maxWindow},
		{"memory latency", m.MemLat, maxLatency},
		{"ITLB entries", m.ITLB.Entries, maxTLBEntries},
		{"DTLB entries", m.DTLB.Entries, maxTLBEntries},
		{"ITLB miss latency", m.ITLB.MissLat, maxLatency},
		{"DTLB miss latency", m.DTLB.MissLat, maxLatency},
	} {
		if b.v > b.max {
			return fmt.Errorf("uarch: %s: %s %d exceeds %d", m.Name, b.name, b.v, b.max)
		}
	}
	for _, c := range []struct {
		name string
		cfg  CacheConfig
	}{{"L1I", m.L1I}, {"L1D", m.L1D}, {"L2", m.L2}} {
		if err := c.cfg.Valid(); err != nil {
			return fmt.Errorf("%s %s: %w", m.Name, c.name, err)
		}
	}
	if m.HasL3() {
		if err := m.L3.Valid(); err != nil {
			return fmt.Errorf("%s L3: %w", m.Name, err)
		}
	}
	if m.MemLat <= 0 {
		return fmt.Errorf("uarch: %s: non-positive memory latency", m.Name)
	}
	if m.ITLB.Entries <= 0 || m.DTLB.Entries <= 0 || m.ITLB.PageBytes <= 0 || m.DTLB.PageBytes <= 0 {
		return fmt.Errorf("uarch: %s: invalid TLB config", m.Name)
	}
	if !(m.FusionRate >= 0 && m.FusionRate <= 1) { // NaN fails both
		return fmt.Errorf("uarch: %s: fusion rate %v outside [0,1]", m.Name, m.FusionRate)
	}
	if m.Prefetch.Enabled {
		if m.Prefetch.Streams <= 0 || m.Prefetch.Streams&(m.Prefetch.Streams-1) != 0 {
			return fmt.Errorf("uarch: %s: prefetch streams %d must be a power of two", m.Name, m.Prefetch.Streams)
		}
		if m.Prefetch.Degree <= 0 || m.Prefetch.Degree > 16 {
			return fmt.Errorf("uarch: %s: prefetch degree %d out of range", m.Name, m.Prefetch.Degree)
		}
	}
	return nil
}

// ModelParams are the machine-only model inputs of the paper's Table 2:
// everything the mechanistic-empirical model needs to know about the
// hardware (as opposed to the counter values, which are per workload).
type ModelParams struct {
	DispatchWidth int
	FrontEndDepth int // c_fe
	L2Lat         int // c_L2: L1 I-miss penalty
	L3Lat         int // c_L3: L2 I-miss penalty on 3-level machines (0 if absent)
	MemLat        int // c_mem
	TLBLat        int // c_TLB
}

// Params extracts the model-visible machine parameters using the
// specification values. In the full pipeline these latencies are instead
// estimated with internal/calibrator microbenchmarks, exactly as the
// paper runs the Calibrator tool rather than trusting spec sheets.
func (m *Machine) Params() ModelParams {
	p := ModelParams{
		DispatchWidth: m.DispatchWidth,
		FrontEndDepth: m.FrontEndDepth,
		L2Lat:         m.L2.LatCycles,
		MemLat:        m.MemLat,
		TLBLat:        m.DTLB.MissLat,
	}
	if m.HasL3() {
		p.L3Lat = m.L3.LatCycles
	}
	return p
}

// PentiumFour returns the Pentium 4 (NetBurst, Prescott)-like machine:
// narrow (3-wide), very deep (31-stage front end), small L1 caches, 1MB
// L2, slow memory (313 cycles), slow TLB walks (70 cycles). Table 1/2.
func PentiumFour() *Machine {
	return &Machine{
		Name:          "pentium4",
		DispatchWidth: 3,
		IssueWidth:    3,
		CommitWidth:   3,
		FrontEndDepth: 31,
		ROBSize:       126,
		IQSize:        64,
		LoadQueueSize: 48,
		MSHRs:         8,
		IntLat:        1,
		MulLat:        4,
		FPLat:         5,
		DivLat:        23,
		LoadAGU:       1,
		StoreLat:      1,
		// Trace cache of 12K µops modeled as a small 8KB L1I equivalent.
		L1I:    CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 4, LatCycles: 1},
		L1D:    CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Assoc: 8, LatCycles: 4},
		L2:     CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8, LatCycles: 31},
		MemLat: 313,
		ITLB:   TLBConfig{Entries: 64, PageBytes: 4096, MissLat: 70},
		DTLB:   TLBConfig{Entries: 64, PageBytes: 4096, MissLat: 70},
		// The P4's predictor is *more* accurate than Core 2's (paper §6:
		// MPKI 4.1 vs 5.8 on CPU2006) — large tournament predictor.
		Predictor:  PredictorConfig{Kind: PredTournament, TableBits: 14, HistoryBits: 14},
		FusionRate: 0, // NetBurst: no fusion
	}
}

// CoreTwo returns the Core 2 (Conroe)-like machine: 4-wide, 14-stage
// front end, 32KB L1s, 4MB L2, 169-cycle memory, 30-cycle TLB walk.
func CoreTwo() *Machine {
	return &Machine{
		Name:          "core2",
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		FrontEndDepth: 14,
		ROBSize:       96,
		IQSize:        32,
		LoadQueueSize: 32,
		MSHRs:         8,
		IntLat:        1,
		MulLat:        3,
		FPLat:         4,
		DivLat:        18,
		LoadAGU:       1,
		StoreLat:      1,
		L1I:           CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, LatCycles: 1},
		L1D:           CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, LatCycles: 3},
		L2:            CacheConfig{SizeBytes: 4 << 20, LineBytes: 64, Assoc: 16, LatCycles: 19},
		MemLat:        169,
		ITLB:          TLBConfig{Entries: 128, PageBytes: 4096, MissLat: 30},
		DTLB:          TLBConfig{Entries: 256, PageBytes: 4096, MissLat: 30},
		// Smaller predictor than the P4 (paper observes more mispredictions
		// on Core 2), compensated by the shallow pipeline.
		Predictor:  PredictorConfig{Kind: PredGshare, TableBits: 12, HistoryBits: 10},
		FusionRate: 0.55, // micro-fusion
	}
}

// CoreI7 returns the Core i7 (Nehalem, Bloomfield)-like machine: 4-wide,
// 14-stage front end, 256KB L2 + 8MB L3, 160-cycle memory, 40-cycle TLB.
func CoreI7() *Machine {
	return &Machine{
		Name:          "corei7",
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		FrontEndDepth: 14,
		ROBSize:       128,
		IQSize:        36,
		LoadQueueSize: 48,
		MSHRs:         16, // Nehalem's key memory-side advance: much deeper
		// miss handling (integrated memory controller) → more MLP
		IntLat:   1,
		MulLat:   3,
		FPLat:    4,
		DivLat:   18,
		LoadAGU:  1,
		StoreLat: 1,
		L1I:      CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4, LatCycles: 1},
		L1D:      CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, LatCycles: 4},
		L2:       CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8, LatCycles: 14},
		L3:       CacheConfig{SizeBytes: 8 << 20, LineBytes: 64, Assoc: 16, LatCycles: 30},
		MemLat:   160,
		ITLB:     TLBConfig{Entries: 128, PageBytes: 4096, MissLat: 40},
		DTLB:     TLBConfig{Entries: 512, PageBytes: 4096, MissLat: 40},
		// Better predictor than Core 2 (paper: fewer mispredictions on i7,
		// but a larger ROB lengthens resolution time).
		Predictor:  PredictorConfig{Kind: PredTournament, TableBits: 13, HistoryBits: 12},
		FusionRate: 0.75, // micro- + macro-fusion
	}
}

// StockMachines returns the three machines of the paper, in generation
// order: Pentium 4, Core 2, Core i7.
func StockMachines() []*Machine {
	return []*Machine{PentiumFour(), CoreTwo(), CoreI7()}
}

// The paper's machines are the registry's built-ins.
func init() {
	MustRegister("pentium4", PentiumFour)
	MustRegister("core2", CoreTwo)
	MustRegister("corei7", CoreI7)
}
