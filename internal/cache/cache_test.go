package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/uarch"
)

func smallCache(t *testing.T, size, line, assoc, lat int) *Cache {
	t.Helper()
	c, err := NewCache(uarch.CacheConfig{SizeBytes: size, LineBytes: line, Assoc: assoc, LatCycles: lat})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, 3)
	if c.Access(0x1000) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1008) {
		t.Error("same-line access should hit")
	}
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, 8 sets of 64B lines (1KB). Three lines mapping to the
	// same set: the least recently used one must be evicted.
	c := smallCache(t, 1024, 64, 2, 3)
	a := uint64(0x0000) // set 0
	b := uint64(0x0200) // set 0 (+8 lines)
	d := uint64(0x0400) // set 0 (+16 lines)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a more recent than b
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Error("a should survive")
	}
	if c.Probe(b) {
		t.Error("b should be evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Error("d should be present")
	}
}

func TestCacheProbeDoesNotAllocate(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, 3)
	if c.Probe(0x1000) {
		t.Error("probe of absent line should be false")
	}
	if c.Access(0x1000) {
		t.Error("probe must not have allocated")
	}
}

func TestCacheReset(t *testing.T) {
	c := smallCache(t, 1024, 64, 2, 3)
	c.Access(0x1000)
	c.Reset()
	if c.Probe(0x1000) {
		t.Error("reset should invalidate")
	}
	h, m := c.Stats()
	if h != 0 || m != 0 {
		t.Error("reset should clear stats")
	}
}

func TestCacheWorkingSetCapacity(t *testing.T) {
	// A working set that fits sees ~100% hits after warmup; twice the
	// capacity with LRU cycling sees ~0%.
	c := smallCache(t, 4096, 64, 4, 3)
	lines := 4096 / 64
	// Fits exactly.
	for round := 0; round < 3; round++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	h, m := c.Stats()
	if h < uint64(2*lines) {
		t.Errorf("fitting working set: hits=%d misses=%d", h, m)
	}
	// Twice capacity, sequential cycling defeats LRU entirely.
	c.Reset()
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	h, m = c.Stats()
	if h != 0 {
		t.Errorf("thrashing working set should never hit, got hits=%d", h)
	}
}

func TestNewCacheRejectsBadConfig(t *testing.T) {
	if _, err := NewCache(uarch.CacheConfig{}); err == nil {
		t.Error("expected error")
	}
}

func TestTLBBasic(t *testing.T) {
	tlb, err := NewTLB(uarch.TLBConfig{Entries: 4, PageBytes: 4096, MissLat: 30})
	if err != nil {
		t.Fatal(err)
	}
	if tlb.Access(0x1000) {
		t.Error("cold TLB access should miss")
	}
	if !tlb.Access(0x1fff) {
		t.Error("same page should hit")
	}
	if tlb.Access(0x2000) {
		t.Error("different page should miss")
	}
}

func TestTLBLRU(t *testing.T) {
	tlb, err := NewTLB(uarch.TLBConfig{Entries: 2, PageBytes: 4096, MissLat: 30})
	if err != nil {
		t.Fatal(err)
	}
	tlb.Access(0x0000) // page 0
	tlb.Access(0x1000) // page 1
	tlb.Access(0x0000) // page 0 again (page 1 now LRU)
	tlb.Access(0x2000) // page 2, evicts page 1
	if !tlb.Access(0x0000) {
		t.Error("page 0 should survive")
	}
	if tlb.Access(0x1000) {
		t.Error("page 1 should have been evicted")
	}
}

func TestTLBErrorsAndReset(t *testing.T) {
	if _, err := NewTLB(uarch.TLBConfig{Entries: 0, PageBytes: 4096}); err == nil {
		t.Error("expected error for zero entries")
	}
	if _, err := NewTLB(uarch.TLBConfig{Entries: 4, PageBytes: 3000}); err == nil {
		t.Error("expected error for non-power-of-two page")
	}
	tlb, _ := NewTLB(uarch.TLBConfig{Entries: 4, PageBytes: 4096, MissLat: 30})
	tlb.Access(0x1000)
	tlb.Reset()
	if tlb.Access(0x1000) {
		t.Error("reset should invalidate")
	}
	h, m := tlb.Stats()
	if h != 0 || m != 1 {
		t.Errorf("stats after reset+access: %d/%d", h, m)
	}
}

func newTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(uarch.CoreI7())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLatencies(t *testing.T) {
	h := newTestHierarchy(t)
	m := h.Machine()
	addr := uint64(0x1000_0000)
	// Cold: miss everywhere → memory latency + TLB walk.
	r := h.Do(Access{Addr: addr})
	if r.Level != LvlMem || !r.MemTrip {
		t.Errorf("cold access level %v", r.Level)
	}
	if !r.TLBMiss {
		t.Error("cold access should miss TLB")
	}
	if r.Lat != m.MemLat+m.DTLB.MissLat {
		t.Errorf("cold latency %d, want %d", r.Lat, m.MemLat+m.DTLB.MissLat)
	}
	// Warm: L1 hit at L1 latency.
	r = h.Do(Access{Addr: addr})
	if r.Level != LvlL1 || r.Lat != m.L1D.LatCycles {
		t.Errorf("warm access level %v lat %d", r.Level, r.Lat)
	}
}

func TestHierarchyL2AndL3Levels(t *testing.T) {
	h := newTestHierarchy(t)
	m := h.Machine()
	// Fill L1D far beyond capacity so early lines fall out of L1 but stay
	// in L2 (256KB) — then re-access one.
	lines := (m.L1D.SizeBytes / 64) * 4
	for i := 0; i < lines; i++ {
		h.Do(Access{Addr: uint64(0x1000_0000 + i*64)})
	}
	r := h.Do(Access{Addr: 0x1000_0000})
	if r.Level != LvlL2 {
		t.Fatalf("expected L2 hit, got %v", r.Level)
	}
	if r.Lat < m.L2.LatCycles {
		t.Errorf("L2 latency %d below %d", r.Lat, m.L2.LatCycles)
	}
	// Now blow out L2 (256KB) but stay within L3 (8MB).
	lines = (m.L2.SizeBytes / 64) * 4
	for i := 0; i < lines; i++ {
		h.Do(Access{Addr: uint64(0x2000_0000 + i*64)})
	}
	r = h.Do(Access{Addr: 0x2000_0000})
	if r.Level != LvlL3 {
		t.Fatalf("expected L3 hit, got %v", r.Level)
	}
}

func TestHierarchyTwoLevelMachine(t *testing.T) {
	h, err := NewHierarchy(uarch.CoreTwo())
	if err != nil {
		t.Fatal(err)
	}
	if h.L3() != nil {
		t.Error("Core 2 should have no L3")
	}
	r := h.Do(Access{Addr: 0x1234_5678})
	if r.Level != LvlMem {
		t.Errorf("cold miss should reach memory, got %v", r.Level)
	}
}

func TestHierarchySideStats(t *testing.T) {
	h := newTestHierarchy(t)
	// One cold data load and one cold instruction fetch.
	h.Do(Access{Addr: 0x1000_0000})
	h.Do(Access{Addr: 0x0040_0000, IsInstr: true})
	if h.DStats.L1Misses != 1 || h.DStats.LLCMisses != 1 || h.DStats.LLCLoadMisses != 1 {
		t.Errorf("DStats: %+v", h.DStats)
	}
	if h.IStats.L1Misses != 1 || h.IStats.LLCMisses != 1 {
		t.Errorf("IStats: %+v", h.IStats)
	}
	if h.IStats.LLCLoadMisses != 0 {
		t.Error("instruction misses must not count as load misses")
	}
	// A store miss counts as an LLC miss but not an LLC *load* miss.
	h.Do(Access{Addr: 0x3000_0000, IsWrite: true})
	if h.DStats.LLCMisses != 2 || h.DStats.LLCLoadMisses != 1 {
		t.Errorf("store miss accounting wrong: %+v", h.DStats)
	}
}

func TestHierarchyL1LoadL2Hits(t *testing.T) {
	h := newTestHierarchy(t)
	m := h.Machine()
	// Load a line, evict it from L1 (stays in L2), reload → L1LoadL2Hit.
	h.Do(Access{Addr: 0x1000_0000})
	lines := (m.L1D.SizeBytes / 64) * 2
	for i := 1; i <= lines; i++ {
		h.Do(Access{Addr: uint64(0x1000_0000 + i*64)})
	}
	before := h.DStats.L1LoadL2Hits
	r := h.Do(Access{Addr: 0x1000_0000})
	if r.Level != LvlL2 {
		t.Skipf("expected L2 hit for this geometry, got %v", r.Level)
	}
	if h.DStats.L1LoadL2Hits != before+1 {
		t.Errorf("L1LoadL2Hits not incremented")
	}
}

func TestHierarchyReset(t *testing.T) {
	h := newTestHierarchy(t)
	h.Do(Access{Addr: 0x1000_0000})
	h.Reset()
	if h.DStats.L1Misses != 0 {
		t.Error("reset should clear stats")
	}
	r := h.Do(Access{Addr: 0x1000_0000})
	if r.Level != LvlMem {
		t.Error("reset should clear cache contents")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LvlL1: "L1", LvlL2: "L2", LvlL3: "L3", LvlMem: "mem"} {
		if l.String() != want {
			t.Errorf("Level %d string %q, want %q", l, l.String(), want)
		}
	}
	if Level(9).String() == "" {
		t.Error("unknown level should render")
	}
}

// Property: hits+misses equals total accesses, and a line just accessed
// always probes true.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, err := NewCache(uarch.CacheConfig{SizeBytes: 2048, LineBytes: 64, Assoc: 2, LatCycles: 1})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Probe(uint64(a)) {
				return false
			}
		}
		h, m := c.Stats()
		return h+m == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refTLB is the pre-rewrite map+linear-scan TLB, kept verbatim as the
// behavioral reference for the O(1) open-addressed implementation: the
// two must agree hit-for-hit on any access stream.
type refTLB struct {
	pages     []uint64
	valid     []bool
	lru       []uint64
	slot      map[uint64]int
	lastPage  uint64
	lastSlot  int
	lastValid bool
	stamp     uint64
	pageShift uint

	hits, misses uint64
}

func newRefTLB(cfg uarch.TLBConfig) *refTLB {
	t := &refTLB{
		pages: make([]uint64, cfg.Entries),
		valid: make([]bool, cfg.Entries),
		lru:   make([]uint64, cfg.Entries),
		slot:  make(map[uint64]int, cfg.Entries),
	}
	for cfg.PageBytes>>t.pageShift > 1 {
		t.pageShift++
	}
	return t
}

func (t *refTLB) access(addr uint64) bool {
	page := addr >> t.pageShift
	t.stamp++
	if t.lastValid && page == t.lastPage {
		t.hits++
		return true
	}
	if t.lastValid {
		t.lru[t.lastSlot] = t.stamp
		t.stamp++
	}
	if i, ok := t.slot[page]; ok {
		t.lru[i] = t.stamp
		t.lastPage = page
		t.lastSlot = i
		t.lastValid = true
		t.hits++
		return true
	}
	t.misses++
	victim := -1
	for i := range t.pages {
		if !t.valid[i] {
			victim = i
			break
		}
		if victim < 0 || t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	if t.valid[victim] {
		delete(t.slot, t.pages[victim])
	}
	t.pages[victim] = page
	t.valid[victim] = true
	t.lru[victim] = t.stamp
	t.slot[page] = victim
	t.lastPage = page
	t.lastSlot = victim
	t.lastValid = true
	return false
}

// TestTLBEquivalenceProperty drives the rewritten TLB and the reference
// implementation over randomized configurations and address streams and
// requires bit-identical hit/miss decisions and statistics. Streams mix
// sequential, strided, and looping-working-set phases so the fast path,
// the probe path, eviction, and re-reference after eviction are all
// exercised.
func TestTLBEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		entries := 1 + rng.Intn(96)
		pageBytes := 1 << (6 + rng.Intn(9)) // 64B..16KB pages
		cfg := uarch.TLBConfig{Entries: entries, PageBytes: pageBytes, MissLat: 30}
		nt, err := NewTLB(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTLB(cfg)
		// Working set a bit larger than the TLB forces steady eviction.
		span := uint64(entries+1+rng.Intn(entries+4)) * uint64(pageBytes)
		addr := uint64(rng.Int63())
		for op := 0; op < 4000; op++ {
			switch rng.Intn(4) {
			case 0: // repeat last address (fast path)
			case 1: // small stride, same or next page
				addr += uint64(rng.Intn(256))
			case 2: // hop within the working set
				addr = addr - addr%span + uint64(rng.Int63())%span
			default: // far jump to a fresh region
				addr = uint64(rng.Int63())
			}
			got, want := nt.Access(addr), ref.access(addr)
			if got != want {
				t.Fatalf("trial %d op %d entries=%d page=%d addr=%#x: new=%v ref=%v",
					trial, op, entries, pageBytes, addr, got, want)
			}
		}
		gh, gm := nt.Stats()
		if gh != ref.hits || gm != ref.misses {
			t.Fatalf("trial %d stats diverged: new %d/%d ref %d/%d",
				trial, gh, gm, ref.hits, ref.misses)
		}
	}
}

// TestTLBResetMatchesFresh mirrors the branch predictor's reset test:
// after heavy traffic, Reset must restore state bit-identical to a
// freshly constructed TLB — same fields, and the same decisions on a
// subsequent stream.
func TestTLBResetMatchesFresh(t *testing.T) {
	cfg := uarch.TLBConfig{Entries: 48, PageBytes: 4096, MissLat: 30}
	used, err := NewTLB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		used.Access(uint64(rng.Int63()))
	}
	used.Reset()
	fresh, err := NewTLB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(used, fresh) {
		t.Error("Reset state differs from NewTLB state")
	}
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Int63())
		if used.Access(addr) != fresh.Access(addr) {
			t.Fatalf("post-reset decision %d diverged", i)
		}
	}
	uh, um := used.Stats()
	fh, fm := fresh.Stats()
	if uh != fh || um != fm {
		t.Errorf("post-reset stats: used %d/%d fresh %d/%d", uh, um, fh, fm)
	}
}

// TestTLBAccessNoAllocs pins the allocation-free contract of the hot
// path.
func TestTLBAccessNoAllocs(t *testing.T) {
	tlb, err := NewTLB(uarch.TLBConfig{Entries: 16, PageBytes: 4096, MissLat: 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63())
	}
	var i int
	allocs := testing.AllocsPerRun(200, func() {
		tlb.Access(addrs[i%len(addrs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("TLB.Access allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzLRUInclusion checks the LRU stack property over fuzzed address
// streams: at equal set count and line size, a true-LRU cache with
// twice the ways holds every line the smaller one holds, so an access
// that hits the smaller cache hits the larger one and doubling Assoc
// never adds misses. Each access is two bytes of the stream, scaled to
// 8-byte granularity.
func FuzzLRUInclusion(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), []byte{0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0, 0, 16, 0, 32, 0, 48, 0, 0, 0, 16, 0, 64, 0, 0, 0})
	f.Add(uint8(6), uint8(3), uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3, 4, 255, 255})
	f.Fuzz(func(t *testing.T, setBits, lineBits, ways uint8, stream []byte) {
		sets := 1 << (setBits % 7)   // 1..64 sets
		line := 16 << (lineBits % 4) // 16..128-byte lines
		assoc := 1 + int(ways%8)     // 1..8 ways, doubled to 2..16
		small := smallCache(t, sets*line*assoc, line, assoc, 1)
		large := smallCache(t, sets*line*2*assoc, line, 2*assoc, 1)
		for i := 0; i+1 < len(stream); i += 2 {
			addr := uint64(stream[i])<<3 | uint64(stream[i+1])<<11
			if hs, hl := small.Access(addr), large.Access(addr); hs && !hl {
				t.Fatalf("access %d (%#x) hit %d ways but missed %d ways (%d sets, %d-byte lines)",
					i/2, addr, assoc, 2*assoc, sets, line)
			}
		}
		_, ms := small.Stats()
		_, ml := large.Stats()
		if ml > ms {
			t.Fatalf("%d ways missed %d times, %d ways %d times", 2*assoc, ml, assoc, ms)
		}
	})
}
