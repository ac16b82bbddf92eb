package cpu

import (
	"testing"

	"halo/internal/cache"
	"halo/internal/mem"
	"halo/internal/noc"
)

func newTestThread() *Thread {
	h := cache.New(cache.DefaultConfig(), noc.NewRing(noc.DefaultRingConfig()),
		mem.NewDRAM(mem.DefaultDRAMConfig()))
	return NewThread(h, 0)
}

func TestALUChargesAtIPC(t *testing.T) {
	th := newTestThread()
	th.ALU(Width * 10)
	if th.Now != 10 {
		t.Fatalf("Now = %d after %d ALU ops, want 10", th.Now, Width*10)
	}
	if th.Counts.Arith != uint64(Width*10) {
		t.Fatalf("arith count = %d", th.Counts.Arith)
	}
}

func TestALUSubCycleAccumulation(t *testing.T) {
	th := newTestThread()
	for i := 0; i < Width; i++ {
		th.ALU(1)
	}
	if th.Now != 1 {
		t.Fatalf("Now = %d after %d single ALU ops, want 1", th.Now, Width)
	}
}

func TestLoadBlocksAndCounts(t *testing.T) {
	th := newTestThread()
	res := th.Load(0x1000)
	if th.Now != res.Done {
		t.Fatal("demand load did not block the thread")
	}
	if th.Counts.Loads != 1 {
		t.Fatalf("loads = %d, want 1", th.Counts.Loads)
	}
	if res.Where != cache.InMemory {
		t.Fatalf("cold load hit %v", res.Where)
	}
	// Hot load is an L1 hit and far cheaper.
	before := th.Now
	res2 := th.Load(0x1000)
	if res2.Where != cache.InL1 {
		t.Fatalf("hot load hit %v", res2.Where)
	}
	if th.Now-before >= res.Latency() {
		t.Fatal("L1 hit not cheaper than cold miss")
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	cold := newTestThread()
	coldStart := cold.Now
	cold.Load(0x2000)
	coldLatency := cold.Now - coldStart

	warm := newTestThread()
	warm.Prefetch(0x2000)
	// Do unrelated work that overlaps the fill.
	warm.ALU(int(coldLatency) * Width)
	start := warm.Now
	warm.Load(0x2000)
	overlapped := warm.Now - start
	if overlapped >= coldLatency/2 {
		t.Fatalf("prefetched load still cost %d cycles (cold: %d)", overlapped, coldLatency)
	}
}

func TestPrefetchDoesNotTimeTravel(t *testing.T) {
	th := newTestThread()
	th.Prefetch(0x3000)
	// Demand load immediately: must wait for the fill, not hit "warm" L1.
	start := th.Now
	th.Load(0x3000)
	if th.Now-start < 50 {
		t.Fatalf("demand load right after prefetch cost only %d cycles", th.Now-start)
	}
}

func TestStoreIsFireAndForget(t *testing.T) {
	th := newTestThread()
	th.Store(0x4000)
	if th.Now > 1 {
		t.Fatalf("store blocked the thread for %d cycles", th.Now)
	}
	if th.Counts.Stores != 1 {
		t.Fatalf("stores = %d", th.Counts.Stores)
	}
}

func TestMPKLAndStallRatio(t *testing.T) {
	th := newTestThread()
	// One memory miss, then 999 L1 hits.
	th.Load(0x5000)
	for i := 0; i < 999; i++ {
		th.Load(0x5000)
	}
	ratio := th.MissRatio(cache.InLLC)
	if ratio < 0.0009 || ratio > 0.0011 {
		t.Fatalf("MissRatio = %v, want ~0.001", ratio)
	}
	if r := th.StallRatio(cache.InLLC); r <= 0 || r >= 1 {
		t.Fatalf("stall ratio = %v", r)
	}
	if th.MissRatio(cache.InL2) < th.MissRatio(cache.InMemory) {
		t.Fatal("MissRatio must be monotone in level")
	}
}

func TestWaitUntil(t *testing.T) {
	th := newTestThread()
	th.WaitUntil(100)
	if th.Now != 100 {
		t.Fatalf("Now = %d, want 100", th.Now)
	}
	th.WaitUntil(50) // never goes backwards
	if th.Now != 100 {
		t.Fatalf("Now went backwards to %d", th.Now)
	}
}

func TestReset(t *testing.T) {
	th := newTestThread()
	th.Load(0x6000)
	th.ALU(7)
	th.Reset()
	if th.Now != 0 || th.Counts.Total() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestSnapshotReadCountsAsLoad(t *testing.T) {
	th := newTestThread()
	th.H.WarmLLC(0x7000)
	res := th.SnapshotRead(0x7000)
	if res.Where != cache.InLLC {
		t.Fatalf("snapshot read hit %v, want LLC", res.Where)
	}
	if th.Counts.Loads != 1 {
		t.Fatal("snapshot read not counted as a load")
	}
	// Repeating it still does not allocate into L1.
	res2 := th.SnapshotRead(0x7000)
	if res2.Where == cache.InL1 {
		t.Fatal("snapshot read allocated into L1")
	}
}
