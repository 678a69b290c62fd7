// Package cache implements the memory-hierarchy substrate of the
// simulated machines: set-associative write-allocate caches with true-LRU
// replacement, fully-associative TLBs, and a multi-level Hierarchy that
// composes L1I/L1D, a unified L2, an optional unified L3, and main
// memory. The Hierarchy reports load-to-use latencies (Table 2 semantics:
// each level's latency is the total latency when the access is satisfied
// there, not an increment) and keeps the per-side hit/miss statistics the
// performance-counter layer exposes.
package cache

import (
	"fmt"

	"repro/internal/uarch"
)

// Level identifies where an access was satisfied.
type Level int

// Hierarchy levels.
const (
	LvlL1 Level = iota
	LvlL2
	LvlL3
	LvlMem
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlL3:
		return "L3"
	case LvlMem:
		return "mem"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Cache is one set-associative cache with true-LRU replacement.
type Cache struct {
	cfg       uarch.CacheConfig
	tags      []uint64 // sets*assoc entries
	valid     []bool
	lru       []uint32 // per-line stamp; larger = more recent
	stamp     uint32
	setsMask  uint64
	lineShift uint
	assoc     int

	hits, misses uint64
}

// NewCache builds a cache from the configuration.
func NewCache(cfg uarch.CacheConfig) (*Cache, error) {
	if err := cfg.Valid(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		tags:     make([]uint64, sets*cfg.Assoc),
		valid:    make([]bool, sets*cfg.Assoc),
		lru:      make([]uint32, sets*cfg.Assoc),
		setsMask: uint64(sets - 1),
		assoc:    cfg.Assoc,
	}
	for c.cfg.LineBytes>>c.lineShift > 1 {
		c.lineShift++
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() uarch.CacheConfig { return c.cfg }

// Access looks up addr, updates LRU state, allocates on miss, and reports
// whether it hit. (Write-allocate: reads and writes behave identically
// for tag-state purposes.)
func (c *Cache) Access(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setsMask
	base := int(set) * c.assoc
	c.stamp++
	if c.stamp == 0 { // wrapped: reset all stamps to preserve ordering roughly
		for i := range c.lru {
			c.lru[i] = 0
		}
		c.stamp = 1
	}
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == lineAddr {
			c.lru[i] = c.stamp
			c.hits++
			return true
		}
	}
	c.misses++
	// Allocate: pick an invalid way, else the LRU way.
	victim := base
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = lineAddr
	c.valid[victim] = true
	c.lru[victim] = c.stamp
	return false
}

// Probe reports whether addr is present without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setsMask
	base := int(set) * c.assoc
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == lineAddr {
			return true
		}
	}
	return false
}

// Stats returns cumulative hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
	c.stamp = 0
	c.hits = 0
	c.misses = 0
}

// tlbHashK is the 64-bit golden-ratio multiplier (Fibonacci hashing):
// the high bits of page*K are well mixed even for the sequential and
// strided page numbers trace generators produce.
const tlbHashK = 0x9E3779B97F4A7C15

// TLB is a fully-associative translation buffer with true-LRU
// replacement. Residency is tracked in an open-addressed page→slot
// table (linear probing, backward-shift deletion, ≤50% load) and
// recency in an intrusive doubly-linked list threaded through the
// slots, so both the hit and the miss/evict path are O(1) and
// allocation-free. A last-page fast path skips even the table probe on
// repeated accesses; deferring the list move is safe because the last
// page is by definition already at the MRU position.
type TLB struct {
	cfg   uarch.TLBConfig
	pages []uint64 // per-slot resident page number
	// LRU list over slots; index Entries is the sentinel. next walks
	// MRU→LRU, so next[sentinel] is the MRU slot and prev[sentinel]
	// the victim.
	next, prev []int32
	key        []uint64 // open-addressed table: page keys...
	slot       []int32  // ...and their slot index, -1 when empty
	tmask      uint64   // len(key)-1; len(key) is a power of two
	hashShift  uint     // 64 - log2(len(key))
	filled     int      // slots allocated since Reset (they fill 0..Entries-1 in order)
	lastPage   uint64
	lastValid  bool
	pageShift  uint

	hits, misses uint64
}

// NewTLB builds a TLB from the configuration.
func NewTLB(cfg uarch.TLBConfig) (*TLB, error) {
	if cfg.Entries <= 0 || cfg.PageBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid TLB config %+v", cfg)
	}
	if cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("cache: TLB page size %d not a power of two", cfg.PageBytes)
	}
	tsize := 8
	for tsize < 2*cfg.Entries {
		tsize <<= 1
	}
	t := &TLB{
		cfg:   cfg,
		pages: make([]uint64, cfg.Entries),
		next:  make([]int32, cfg.Entries+1),
		prev:  make([]int32, cfg.Entries+1),
		key:   make([]uint64, tsize),
		slot:  make([]int32, tsize),
		tmask: uint64(tsize - 1),
	}
	t.hashShift = 64
	for s := tsize; s > 1; s >>= 1 {
		t.hashShift--
	}
	for cfg.PageBytes>>t.pageShift > 1 {
		t.pageShift++
	}
	t.clearState()
	return t, nil
}

// clearState restores the freshly-constructed empty state; NewTLB and
// Reset share it so Reset is bit-identical to a new TLB.
func (t *TLB) clearState() {
	for i := range t.pages {
		t.pages[i] = 0
		t.next[i] = 0
		t.prev[i] = 0
	}
	s := int32(len(t.pages)) // sentinel
	t.next[s] = s
	t.prev[s] = s
	for i := range t.slot {
		t.key[i] = 0
		t.slot[i] = -1
	}
	t.filled = 0
	t.lastPage = 0
	t.lastValid = false
	t.hits = 0
	t.misses = 0
}

// home returns the preferred table index for page.
func (t *TLB) home(page uint64) uint64 {
	return (page * tlbHashK) >> t.hashShift
}

// unlink removes slot s from the LRU list.
func (t *TLB) unlink(s int32) {
	n, p := t.next[s], t.prev[s]
	t.next[p] = n
	t.prev[n] = p
}

// pushFront makes slot s the MRU entry.
func (t *TLB) pushFront(s int32) {
	sent := int32(len(t.pages))
	n := t.next[sent]
	t.next[s] = n
	t.prev[s] = sent
	t.prev[n] = s
	t.next[sent] = s
}

// tableDel empties table index i, backward-shifting the following
// probe-chain entries so lookups never need tombstones.
func (t *TLB) tableDel(i uint64) {
	t.slot[i] = -1
	j := i
	for {
		j = (j + 1) & t.tmask
		if t.slot[j] < 0 {
			return
		}
		h := t.home(t.key[j])
		// Move j's entry into the hole unless its home lies strictly
		// after the hole on the cyclic probe path ending at j.
		if (j-h)&t.tmask >= (j-i)&t.tmask {
			t.key[i] = t.key[j]
			t.slot[i] = t.slot[j]
			t.slot[j] = -1
			i = j
		}
	}
}

// find probes for page and returns the table index holding it, or the
// first empty index on its probe chain when absent.
func (t *TLB) find(page uint64) uint64 {
	i := t.home(page)
	for t.slot[i] >= 0 {
		if t.key[i] == page {
			return i
		}
		i = (i + 1) & t.tmask
	}
	return i
}

// Access translates addr, allocating on miss; it reports whether the
// translation hit.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> t.pageShift
	// Fast path: repeated access to the most recent page, which is
	// already the MRU list entry — no probe or list move needed.
	if t.lastValid && page == t.lastPage {
		t.hits++
		return true
	}
	i := t.find(page)
	if s := t.slot[i]; s >= 0 {
		t.unlink(s)
		t.pushFront(s)
		t.lastPage = page
		t.lastValid = true
		t.hits++
		return true
	}
	t.misses++
	var s int32
	if t.filled < len(t.pages) {
		// Empty slots are the suffix filled..Entries-1; taking them in
		// order matches the old first-invalid-slot scan.
		s = int32(t.filled)
		t.filled++
	} else {
		s = t.prev[len(t.pages)] // LRU victim
		t.unlink(s)
		t.tableDel(t.find(t.pages[s]))
		i = t.find(page) // deletion may have shifted the insert position
	}
	t.pages[s] = page
	t.key[i] = page
	t.slot[i] = s
	t.pushFront(s)
	t.lastPage = page
	t.lastValid = true
	return false
}

// Stats returns cumulative hits and misses.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Reset invalidates all entries and clears statistics, restoring state
// bit-identical to a freshly built TLB.
func (t *TLB) Reset() {
	t.clearState()
}

// SideStats counts per-level misses for one side (instruction or data).
type SideStats struct {
	L1Misses  uint64 // L1 misses (any destination)
	L2Misses  uint64 // L2 misses (only accesses that reached L2)
	L3Misses  uint64 // L3 misses (only on 3-level machines)
	LLCMisses uint64 // misses at the last level — trips to memory
	TLBMisses uint64

	// Load-only subsets (data side): the model's m_L2D$ counts *load*
	// misses because store misses drain through the write buffer.
	LLCLoadMisses uint64
	L1LoadMisses  uint64
	L1LoadL2Hits  uint64 // L1 load misses that hit in L2 (model's mpµ_DL1)
}

// Access classifies a hierarchy access.
type Access struct {
	Addr    uint64
	IsWrite bool
	IsInstr bool
}

// Result describes the outcome of a hierarchy access.
type Result struct {
	Lat     int   // load-to-use latency in cycles, including TLB penalty
	Level   Level // level that satisfied the access
	TLBMiss bool
	MemTrip bool // access went to main memory (consumes an MSHR)
}

// Hierarchy composes the full memory system of one machine.
type Hierarchy struct {
	machine *uarch.Machine
	l1i     *Cache
	l1d     *Cache
	l2      *Cache
	l3      *Cache // nil when absent
	itlb    *TLB
	dtlb    *TLB
	pf      *Prefetcher // optional L2 stride prefetcher (nil when disabled)

	IStats SideStats
	DStats SideStats
}

// NewHierarchy builds the memory system for m.
func NewHierarchy(m *uarch.Machine) (*Hierarchy, error) {
	h := &Hierarchy{machine: m}
	var err error
	if h.l1i, err = NewCache(m.L1I); err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	if h.l1d, err = NewCache(m.L1D); err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	if h.l2, err = NewCache(m.L2); err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if m.HasL3() {
		if h.l3, err = NewCache(m.L3); err != nil {
			return nil, fmt.Errorf("L3: %w", err)
		}
	}
	if h.itlb, err = NewTLB(m.ITLB); err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	if h.dtlb, err = NewTLB(m.DTLB); err != nil {
		return nil, fmt.Errorf("DTLB: %w", err)
	}
	if m.Prefetch.Enabled {
		if h.pf, err = NewPrefetcher(m.Prefetch, h.l2); err != nil {
			return nil, fmt.Errorf("prefetcher: %w", err)
		}
	}
	return h, nil
}

// Prefetcher returns the L2 prefetcher, or nil when disabled.
func (h *Hierarchy) Prefetcher() *Prefetcher { return h.pf }

// Machine returns the owning machine configuration.
func (h *Hierarchy) Machine() *uarch.Machine { return h.machine }

// L1I, L1D, L2, L3, ITLB, DTLB expose the components (L3 may be nil).
func (h *Hierarchy) L1I() *Cache { return h.l1i }
func (h *Hierarchy) L1D() *Cache { return h.l1d }
func (h *Hierarchy) L2() *Cache  { return h.l2 }
func (h *Hierarchy) L3() *Cache  { return h.l3 }
func (h *Hierarchy) ITLB() *TLB  { return h.itlb }
func (h *Hierarchy) DTLB() *TLB  { return h.dtlb }

// Do performs one access through the hierarchy and returns its outcome.
func (h *Hierarchy) Do(a Access) Result {
	if a.IsInstr {
		return h.do(h.l1i, h.itlb, &h.IStats, a.Addr, !a.IsWrite, true)
	}
	return h.do(h.l1d, h.dtlb, &h.DStats, a.Addr, !a.IsWrite, false)
}

// DoInstr performs one instruction-fetch access.
func (h *Hierarchy) DoInstr(addr uint64) Result {
	return h.do(h.l1i, h.itlb, &h.IStats, addr, true, true)
}

// DoLoad performs one data-load access.
func (h *Hierarchy) DoLoad(addr uint64) Result {
	return h.do(h.l1d, h.dtlb, &h.DStats, addr, true, false)
}

// DoStore performs one data-store access. Stores drain through the
// write buffer, so the caller never needs the latency outcome.
func (h *Hierarchy) DoStore(addr uint64) {
	h.do(h.l1d, h.dtlb, &h.DStats, addr, false, false)
}

// do is the shared access path; the side (L1, TLB, statistics) is
// resolved by the Do* wrappers so the per-µop call sites pay no
// per-access side selection. isLoad only matters on the data side
// (isInstr false): load misses feed the model's load-specific counters.
func (h *Hierarchy) do(l1 *Cache, tlb *TLB, side *SideStats, addr uint64, isRead, isInstr bool) Result {
	m := h.machine
	var res Result

	if !tlb.Access(addr) {
		res.TLBMiss = true
		side.TLBMisses++
	}

	isLoad := isRead && !isInstr
	if l1.Access(addr) {
		res.Level = LvlL1
		res.Lat = l1.cfg.LatCycles
	} else {
		side.L1Misses++
		if isLoad {
			side.L1LoadMisses++
		}
		if h.pf != nil && !isInstr {
			// The streamer watches the L2's demand stream (L1D misses) and
			// pre-populates the L2 before the demand lookup below.
			h.pf.OnDemand(addr, h.l2.Probe(addr))
		}
		if h.l2.Access(addr) {
			res.Level = LvlL2
			res.Lat = m.L2.LatCycles
			if isLoad {
				side.L1LoadL2Hits++
			}
		} else {
			side.L2Misses++
			if h.l3 != nil {
				if h.l3.Access(addr) {
					res.Level = LvlL3
					res.Lat = m.L3.LatCycles
				} else {
					side.L3Misses++
					side.LLCMisses++
					if isLoad {
						side.LLCLoadMisses++
					}
					res.Level = LvlMem
					res.Lat = m.MemLat
					res.MemTrip = true
				}
			} else {
				side.LLCMisses++
				if isLoad {
					side.LLCLoadMisses++
				}
				res.Level = LvlMem
				res.Lat = m.MemLat
				res.MemTrip = true
			}
		}
	}
	if res.TLBMiss {
		res.Lat += tlb.cfg.MissLat
	}
	return res
}

// Reset clears all cache, TLB and prefetcher state and statistics, so
// a reset hierarchy behaves exactly like a new one.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	if h.l3 != nil {
		h.l3.Reset()
	}
	h.itlb.Reset()
	h.dtlb.Reset()
	if h.pf != nil {
		h.pf.Reset()
	}
	h.IStats = SideStats{}
	h.DStats = SideStats{}
}
