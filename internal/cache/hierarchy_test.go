package cache

import (
	"testing"

	"halo/internal/mem"
	"halo/internal/noc"
	"halo/internal/sim"
)

func testHierarchy() *Hierarchy {
	cfg := DefaultConfig()
	ring := noc.NewRing(noc.DefaultRingConfig())
	dram := mem.NewDRAM(mem.DefaultDRAMConfig())
	return New(cfg, ring, dram)
}

// smallHierarchy builds a hierarchy with tiny caches so eviction paths are
// easy to exercise.
func smallHierarchy() *Hierarchy {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Slices = 4
	cfg.L1SizeBytes = 4 * mem.LineSize // 2 sets x 2 ways
	cfg.L1Ways = 2
	cfg.L2SizeBytes = 8 * mem.LineSize
	cfg.L2Ways = 2
	cfg.LLCSliceBytes = 16 * mem.LineSize
	cfg.LLCWays = 2
	ring := noc.NewRing(noc.RingConfig{Stops: 4, HopCycles: 2, InjectDelay: 3})
	dram := mem.NewDRAM(mem.DefaultDRAMConfig())
	return New(cfg, ring, dram)
}

func TestColdMissThenHits(t *testing.T) {
	h := testHierarchy()
	r1 := h.CoreAccess(0, 0, 0x1000, false)
	if r1.Where != InMemory {
		t.Fatalf("first access hit %v, want memory", r1.Where)
	}
	r2 := h.CoreAccess(r1.Done, 0, 0x1000, false)
	if r2.Where != InL1 {
		t.Fatalf("second access hit %v, want L1", r2.Where)
	}
	if r2.Latency() >= r1.Latency() {
		t.Fatalf("L1 hit (%d) not faster than memory (%d)", r2.Latency(), r1.Latency())
	}
	if r2.Latency() != h.cfg.L1Latency {
		t.Fatalf("L1 hit latency = %d, want %d", r2.Latency(), h.cfg.L1Latency)
	}
}

func TestLatencyOrdering(t *testing.T) {
	h := testHierarchy()
	// Warm the line into LLC only: another core reads it, then evict from
	// its private caches is awkward; instead use WarmLLC.
	h.WarmLLC(0x2000)
	llc := h.CoreAccess(0, 0, 0x2000, false)
	if llc.Where != InLLC {
		t.Fatalf("warmed access hit %v, want LLC", llc.Where)
	}
	memr := h.CoreAccess(0, 1, 0x99000, false)
	if memr.Where != InMemory {
		t.Fatalf("cold access hit %v, want memory", memr.Where)
	}
	l1 := h.CoreAccess(llc.Done, 0, 0x2000, false)
	if !(l1.Latency() < llc.Latency() && llc.Latency() < memr.Latency()) {
		t.Fatalf("latency ordering violated: L1=%d LLC=%d mem=%d",
			l1.Latency(), llc.Latency(), memr.Latency())
	}
}

func TestRemoteCacheSourcing(t *testing.T) {
	h := testHierarchy()
	// Core 0 writes the line: it holds it Modified.
	w := h.CoreAccess(0, 0, 0x3000, true)
	// Core 1 reads: must be sourced from core 0's private cache.
	r := h.CoreAccess(w.Done, 1, 0x3000, false)
	if r.Where != InRemoteCache {
		t.Fatalf("cross-core read hit %v, want remote cache", r.Where)
	}
	h.WarmLLC(0x4000)
	llcHit := h.CoreAccess(0, 2, 0x4000, false)
	if r.Latency() <= llcHit.Latency() {
		t.Fatalf("remote-cache hit (%d) should cost more than LLC hit (%d)",
			r.Latency(), llcHit.Latency())
	}
	// After the read, a third core's read is an LLC hit (owner downgraded).
	r3 := h.CoreAccess(r.Done, 2, 0x3000, false)
	if r3.Where != InLLC {
		t.Fatalf("read after downgrade hit %v, want LLC", r3.Where)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := testHierarchy()
	h.WarmLLC(0x5000)
	a := h.CoreAccess(0, 0, 0x5000, false)
	b := h.CoreAccess(a.Done, 1, 0x5000, false)
	// Core 2 writes: cores 0 and 1 must lose their copies.
	w := h.CoreAccess(b.Done, 2, 0x5000, true)
	if inL1, inL2, _ := h.Present(0, 0x5000); inL1 || inL2 {
		t.Fatal("core 0 kept its copy after a remote write")
	}
	if inL1, inL2, _ := h.Present(1, 0x5000); inL1 || inL2 {
		t.Fatal("core 1 kept its copy after a remote write")
	}
	// Core 2's next read hits L1 in Modified state.
	r := h.CoreAccess(w.Done, 2, 0x5000, false)
	if r.Where != InL1 {
		t.Fatalf("writer's re-read hit %v, want L1", r.Where)
	}
}

func TestExclusiveThenModifiedSilently(t *testing.T) {
	h := testHierarchy()
	r := h.CoreAccess(0, 0, 0x6000, false) // E state
	w := h.CoreAccess(r.Done, 0, 0x6000, true)
	if w.Where != InL1 {
		t.Fatalf("E->M upgrade hit %v, want silent L1 upgrade", w.Where)
	}
}

func TestSharedWriteUpgradePaysLLCTrip(t *testing.T) {
	h := testHierarchy()
	h.WarmLLC(0x7000)
	a := h.CoreAccess(0, 0, 0x7000, false)
	b := h.CoreAccess(a.Done, 1, 0x7000, false) // both Shared now
	w := h.CoreAccess(b.Done, 0, 0x7000, true)
	if w.Where == InL1 || w.Where == InL2 {
		t.Fatalf("S->M upgrade serviced at %v; must reach the directory", w.Where)
	}
	if inL1, inL2, _ := h.Present(1, 0x7000); inL1 || inL2 {
		t.Fatal("other sharer survived the upgrade")
	}
}

// invertedHierarchy builds a pathological single-slice hierarchy whose LLC is
// smaller than the L2, so LLC evictions hit lines still held privately and
// the back-invalidation path is exercised.
func invertedHierarchy() *Hierarchy {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Slices = 1
	cfg.L1SizeBytes = 2 * mem.LineSize
	cfg.L1Ways = 2
	cfg.L2SizeBytes = 64 * mem.LineSize
	cfg.L2Ways = 4
	cfg.LLCSliceBytes = 4 * mem.LineSize
	cfg.LLCWays = 2
	ring := noc.NewRing(noc.RingConfig{Stops: 1, HopCycles: 2, InjectDelay: 3})
	return New(cfg, ring, mem.NewDRAM(mem.DefaultDRAMConfig()))
}

func TestLLCEvictionBackInvalidates(t *testing.T) {
	h := invertedHierarchy()
	now := sim.Cycle(0)
	for i := 0; i < 64; i++ {
		r := h.CoreAccess(now, 0, mem.Addr(0x10000+i*mem.LineSize), false)
		now = r.Done
	}
	if h.Stats().BackInvalidations == 0 {
		t.Fatal("no back-invalidations despite LLC thrashing")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := invertedHierarchy()
	now := sim.Cycle(0)
	for i := 0; i < 64; i++ {
		r := h.CoreAccess(now, 0, mem.Addr(0x10000+i*mem.LineSize), true)
		now = r.Done
	}
	if h.Stats().Writebacks == 0 {
		t.Fatal("dirty lines evicted without writeback")
	}
}

func TestAccelAccessFasterThanCore(t *testing.T) {
	h := testHierarchy()
	var coreTotal, accelTotal sim.Cycle
	const n = 200
	for i := 0; i < n; i++ {
		addr := mem.Addr(0x100000 + i*mem.LineSize)
		h.WarmLLC(addr)
		c := h.CoreAccess(sim.Cycle(i*1000), 0, addr, false)
		if c.Where != InLLC {
			t.Fatalf("core access hit %v, want LLC", c.Where)
		}
		coreTotal += c.Latency()
	}
	h = testHierarchy() // fresh port resources: time restarts at 0 below
	for i := 0; i < n; i++ {
		addr := mem.Addr(0x900000 + i*mem.LineSize)
		h.WarmLLC(addr)
		a := h.AccelAccess(sim.Cycle(i*1000), i%16, addr, false)
		if a.Where != InLLC {
			t.Fatalf("accel access hit %v, want LLC", a.Where)
		}
		accelTotal += a.Latency()
	}
	ratio := float64(coreTotal) / float64(accelTotal)
	// Paper Fig. 10: CHA-side LLC access is ~4.1x faster than core-side.
	if ratio < 3.0 || ratio > 6.0 {
		t.Fatalf("accel/core LLC access ratio = %.2f, want ~4x", ratio)
	}
}

func TestAccelAccessDoesNotPollutePrivateCaches(t *testing.T) {
	h := testHierarchy()
	h.AccelAccess(0, 3, 0x8000, false)
	for core := 0; core < 16; core++ {
		if inL1, inL2, _ := h.Present(core, 0x8000); inL1 || inL2 {
			t.Fatalf("accel access installed the line into core %d's private cache", core)
		}
	}
	if _, _, inLLC := h.Present(0, 0x8000); !inLLC {
		t.Fatal("accel access did not fill the LLC")
	}
}

func TestAccelWriteInvalidatesCoreCopies(t *testing.T) {
	h := testHierarchy()
	r := h.CoreAccess(0, 0, 0x9000, false)
	h.AccelAccess(r.Done, 0, 0x9000, true)
	if inL1, inL2, _ := h.Present(0, 0x9000); inL1 || inL2 {
		t.Fatal("core copy survived an accelerator write")
	}
}

func TestLockBlocksWritesUntilRelease(t *testing.T) {
	h := testHierarchy()
	h.WarmLLC(0xa000)
	h.LockLine(0, 0, 0xa000, 500)
	w := h.CoreAccess(10, 1, 0xa000, true)
	if w.Done < 500 {
		t.Fatalf("write to a locked line completed at %d, before lock release 500", w.Done)
	}
	if h.Stats().LockStalls != 1 {
		t.Fatalf("lock stalls = %d, want 1", h.Stats().LockStalls)
	}
	// Reads are not blocked by the lock.
	h.LockLine(600, 0, 0xb000, 2000)
	h.WarmLLC(0xb000)
	r := h.CoreAccess(700, 2, 0xb000, false)
	if r.Done >= 2000 {
		t.Fatal("read stalled on a lock; locks must only block modification")
	}
}

func TestLockExpiresLazily(t *testing.T) {
	h := testHierarchy()
	h.WarmLLC(0xc000)
	h.LockLine(0, 0, 0xc000, 100)
	w := h.CoreAccess(200, 1, 0xc000, true)
	if w.Latency() > 200 {
		t.Fatalf("expired lock still stalled a write (latency %d)", w.Latency())
	}
	if h.Stats().LockStalls != 0 {
		t.Fatal("expired lock counted as a stall")
	}
}

func TestAccelInvalidateCallbackOnWrite(t *testing.T) {
	h := testHierarchy()
	var invalidated []mem.Addr
	h.OnAccelInvalidate = func(a mem.Addr) { invalidated = append(invalidated, a) }
	h.WarmLLC(0xe000)
	h.MarkAccelValid(0xe000)
	h.CoreAccess(0, 0, 0xe000, true)
	if len(invalidated) != 1 || invalidated[0] != 0xe000 {
		t.Fatalf("invalidate callback got %v, want [0xe000]", invalidated)
	}
}

func TestSnapshotReadLeavesOwnershipAlone(t *testing.T) {
	h := testHierarchy()
	w := h.CoreAccess(0, 0, 0xf000, true) // core 0 owns the line M
	s := h.SnapshotRead(w.Done, 1, 0xf000)
	if inL1, inL2, _ := h.Present(1, 0xf000); inL1 || inL2 {
		t.Fatal("snapshot read allocated into the reader's private cache")
	}
	if inL1, _, _ := h.Present(0, 0xf000); !inL1 {
		t.Fatal("snapshot read disturbed the owner's copy")
	}
	_ = s
}

func TestStatsAggregation(t *testing.T) {
	h := testHierarchy()
	h.CoreAccess(0, 0, 0x11000, false)
	h.CoreAccess(100000, 0, 0x11000, false)
	s := h.Stats()
	if s.L1Hits != 1 || s.L1Misses != 1 {
		t.Fatalf("L1 stats = %d/%d, want 1/1", s.L1Hits, s.L1Misses)
	}
	h.ResetStats()
	s = h.Stats()
	if s.L1Hits != 0 || s.LLCMisses != 0 {
		t.Fatal("ResetStats left counters non-zero")
	}
}

func TestMismatchedSlicesPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slices = 8
	defer func() {
		if recover() == nil {
			t.Fatal("slice/ring mismatch did not panic")
		}
	}()
	New(cfg, noc.NewRing(noc.DefaultRingConfig()), mem.NewDRAM(mem.DefaultDRAMConfig()))
}
