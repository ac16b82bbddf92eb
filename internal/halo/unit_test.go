package halo

import (
	"encoding/binary"
	"testing"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
)

func key16(i uint64) []byte {
	k := make([]byte, 16)
	binary.LittleEndian.PutUint64(k, i)
	binary.LittleEndian.PutUint64(k[8:], i^0xabcdef)
	return k
}

func testPlatform(t testing.TB) *Platform {
	t.Helper()
	return NewPlatform(DefaultPlatformConfig())
}

func populatedTable(t testing.TB, p *Platform, entries uint64, fill uint64) *cuckoo.Table {
	t.Helper()
	tbl, err := p.NewTable(cuckoo.Config{Entries: entries, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < fill; i++ {
		if err := tbl.Insert(key16(i), i*2+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return tbl
}

func TestEncodeDecodeResult(t *testing.T) {
	v, found, done := DecodeResult(EncodeResult(12345, true))
	if v != 12345 || !found || !done {
		t.Fatalf("round trip = (%d,%v,%v)", v, found, done)
	}
	v, found, done = DecodeResult(EncodeResult(0, false))
	if v != 0 || found || !done {
		t.Fatalf("miss round trip = (%d,%v,%v)", v, found, done)
	}
	if _, _, done := DecodeResult(0); done {
		t.Fatal("zero word decodes as done")
	}
}

func TestLookupBCorrectness(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 2048, 1500)
	th := cpu.NewThread(p.Hier, 0)
	for i := uint64(0); i < 1500; i++ {
		v, ok := p.Unit.LookupB(th, tbl.Base(), key16(i))
		if !ok || v != i*2+1 {
			t.Fatalf("LookupB(%d) = (%d,%v), want (%d,true)", i, v, ok, i*2+1)
		}
	}
	if _, ok := p.Unit.LookupB(th, tbl.Base(), key16(99999)); ok {
		t.Fatal("LookupB found an absent key")
	}
	s := p.Unit.Stats()
	if s.Queries != 1501 || s.Hits != 1500 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLookupBAdvancesTime(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 256, 100)
	th := cpu.NewThread(p.Hier, 0)
	before := th.Now
	p.Unit.LookupB(th, tbl.Base(), key16(5))
	if th.Now <= before {
		t.Fatal("blocking lookup did not advance the thread clock")
	}
}

func TestLookupNBBatchCorrectness(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 4096, 3000)
	th := cpu.NewThread(p.Hier, 0)
	queries := make([]NBQuery, 20)
	for i := range queries {
		queries[i] = NBQuery{TableAddr: tbl.Base(), Key: key16(uint64(i * 100))}
	}
	queries[19] = NBQuery{TableAddr: tbl.Base(), Key: key16(99999)} // miss
	results := p.Unit.LookupManyNB(th, queries)
	for i := 0; i < 19; i++ {
		if !results[i].Found || results[i].Value != uint64(i*100)*2+1 {
			t.Fatalf("NB result %d = %+v", i, results[i])
		}
	}
	if results[19].Found {
		t.Fatal("NB lookup found an absent key")
	}
}

func TestLookupNBResultLineEncoding(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 256, 100)
	th := cpu.NewThread(p.Hier, 0)
	p.Unit.LookupManyNB(th, []NBQuery{
		{TableAddr: tbl.Base(), Key: key16(1)},
		{TableAddr: tbl.Base(), Key: key16(424242)},
	})
	// The accelerator wrote encoded words into the core's result line.
	line := p.Unit.resultBuf[0]
	v, found, done := DecodeResult(p.Space.Load64(line))
	if !done || !found || v != 3 {
		t.Fatalf("slot 0 = (%d,%v,%v)", v, found, done)
	}
	_, found, done = DecodeResult(p.Space.Load64(line + 8))
	if !done || found {
		t.Fatal("slot 1 should be done+miss")
	}
}

func TestNonBlockingBeatsBlockingOnBatches(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 1<<14, 12000)
	p.WarmTable(tbl)
	th := cpu.NewThread(p.Hier, 0)

	// Blocking: 64 dependent lookups.
	start := th.Now
	for i := uint64(0); i < 64; i++ {
		p.Unit.LookupB(th, tbl.Base(), key16(i))
	}
	blocking := th.Now - start

	// Non-blocking: same 64 lookups in batches of 8.
	queries := make([]NBQuery, 64)
	for i := range queries {
		queries[i] = NBQuery{TableAddr: tbl.Base(), Key: key16(uint64(i) + 3000)}
	}
	start = th.Now
	p.Unit.LookupManyNB(th, queries)
	nonBlocking := th.Now - start

	if nonBlocking >= blocking {
		t.Fatalf("non-blocking (%d) not faster than blocking (%d)", nonBlocking, blocking)
	}
}

func TestMetadataCacheWarmsAndInvalidates(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 256, 100)
	th := cpu.NewThread(p.Hier, 0)
	p.Unit.LookupB(th, tbl.Base(), key16(1))
	p.Unit.LookupB(th, tbl.Base(), key16(2))
	s := p.Unit.Stats()
	if s.MetaMisses != 1 || s.MetaHits != 1 {
		t.Fatalf("meta stats = %+v; the second lookup should hit", s)
	}
	// A table mutation that bumps the version counter writes the metadata
	// line; the CV bit must invalidate the cached copy.
	tbl.Delete(key16(1))
	th2 := cpu.NewThread(p.Hier, 1)
	// Simulate the writer core touching the metadata line through the
	// coherent hierarchy (the functional Delete above doesn't do timing).
	p.Hier.CoreAccess(th.Now, 1, tbl.VersionAddr(), true)
	p.Unit.LookupB(th2, tbl.Base(), key16(2))
	s = p.Unit.Stats()
	if s.MetaMisses != 2 {
		t.Fatalf("metadata cache survived a coherent write: %+v", s)
	}
}

func TestFaultOnGarbageTable(t *testing.T) {
	p := testPlatform(t)
	th := cpu.NewThread(p.Hier, 0)
	garbage := p.Alloc.AllocLines(1)
	_, ok := p.Unit.LookupB(th, garbage, key16(1))
	if ok {
		t.Fatal("lookup against garbage metadata succeeded")
	}
	if p.Unit.Stats().Faults != 1 {
		t.Fatalf("faults = %d, want 1", p.Unit.Stats().Faults)
	}
}

// TestFaultOnInvalidMetadata patches one field of a valid table's metadata
// line at a time. The accelerator must reject every line cuckoo.Attach
// rejects, and every walk key length outside 1..64, as a counted fault: no
// panic, and no key buffer sized from the corrupt length.
func TestFaultOnInvalidMetadata(t *testing.T) {
	const offKeyLen, offBucketCount = 4, 8 // cuckoo's metadata layout
	for _, tc := range []struct {
		name  string
		patch func(p *Platform, tbl *cuckoo.Table)
	}{
		{"key length 2^32-1", func(p *Platform, tbl *cuckoo.Table) { p.Space.Store32(tbl.Base()+offKeyLen, 1<<32-1) }},
		{"key length 65", func(p *Platform, tbl *cuckoo.Table) { p.Space.Store32(tbl.Base()+offKeyLen, 65) }},
		{"bucket count 0", func(p *Platform, tbl *cuckoo.Table) { p.Space.Store64(tbl.Base()+offBucketCount, 0) }},
		{"bucket count disagrees with capacity", func(p *Platform, tbl *cuckoo.Table) {
			p.Space.Store64(tbl.Base()+offBucketCount, 2*tbl.BucketCount())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testPlatform(t)
			tbl := populatedTable(t, p, 512, 100)
			tc.patch(p, tbl)
			if _, err := cuckoo.Attach(p.Space, tbl.Base()); err == nil {
				t.Fatal("cuckoo.Attach accepted the patched line")
			}
			keyAddr := p.Alloc.AllocLines(1)
			p.Space.WriteAt(keyAddr, key16(7))
			a := p.Unit.Accelerator(0)
			r := a.Process(0, Query{TableAddr: tbl.Base(), KeyAddr: keyAddr})
			if !r.Fault || r.Found {
				t.Fatalf("query = %+v, want a fault", r)
			}
			if got := a.Stats().Faults; got != 1 {
				t.Fatalf("faults = %d, want 1", got)
			}
		})
	}
	for _, keyLen := range []int{-1, 0, 65} {
		p := testPlatform(t)
		root := buildTinyTree(p)
		keyAddr := p.Alloc.AllocLines(2)
		th := cpu.NewThread(p.Hier, 0)
		if r := p.Unit.WalkB(th, root, keyAddr, keyLen); !r.Fault || r.Found {
			t.Errorf("walk with key length %d = %+v, want a fault", keyLen, r)
		}
		if got := p.Unit.Stats().Faults; got != 1 {
			t.Errorf("walk with key length %d: faults = %d, want 1", keyLen, got)
		}
	}
}

func TestScoreboardBackpressure(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 4096, 3000)
	p.WarmTable(tbl)
	// Slam one accelerator with many simultaneous queries (same table ⇒
	// same home accelerator under DispatchByTable... unless diverted).
	// Use the accelerator directly to bypass diversion.
	a := p.Unit.Accelerator(0)
	keyAddr := p.Alloc.AllocLines(1)
	p.Space.WriteAt(keyAddr, key16(7))
	var lastDone uint64
	for i := 0; i < 40; i++ {
		r := a.Process(0, Query{Core: 0, TableAddr: tbl.Base(), KeyAddr: keyAddr})
		lastDone = uint64(r.Done)
	}
	if a.Stats().QueueCycles == 0 {
		t.Fatal("40 simultaneous queries caused no scoreboard queueing")
	}
	if a.OutstandingAt(0) != DefaultAccelConfig().ScoreboardDepth {
		t.Fatalf("outstanding at t=0 is %d, want scoreboard depth", a.OutstandingAt(0))
	}
	_ = lastDone
}

func TestBusyDiversionAcrossAccelerators(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 4096, 3000)
	p.WarmTable(tbl)
	// One core alone cannot exceed the 10-deep scoreboard (its result line
	// holds only 8 in-flight queries), so model all 16 cores bursting
	// against the same table at the same instant: the home accelerator
	// saturates and the distributor must divert the overflow.
	keyAddr := p.Alloc.AllocLines(1)
	p.Space.WriteAt(keyAddr, key16(7))
	for i := 0; i < 200; i++ {
		p.Unit.dispatch(0, Query{Core: i % 16, TableAddr: tbl.Base(), KeyAddr: keyAddr})
	}
	used := 0
	for s := 0; s < 16; s++ {
		if p.Unit.Accelerator(s).Stats().Queries > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("all 200 queries ran on %d accelerator(s); busy diversion inactive", used)
	}
	if p.Unit.Distributor().Stats().Diverted == 0 {
		t.Fatal("distributor reports no diversions")
	}
}

func TestAcceleratorLocksBucketLines(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 256, 100)
	p.WarmTable(tbl)
	th := cpu.NewThread(p.Hier, 0)
	p.Unit.LookupB(th, tbl.Base(), key16(5))
	// A write racing the walk (issued in the middle of the query window)
	// must stall until the lock clears.
	_, sig, b1, _ := tbl.Hashes(key16(5))
	_ = sig
	res := p.Hier.CoreAccess(th.Now/2, 1, tbl.BucketAddr(b1), true)
	if res.Done < th.Now && p.Hier.Stats().LockStalls == 0 {
		t.Fatal("concurrent write to a locked bucket neither stalled nor counted")
	}
}

func TestHybridSwitchesModes(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 4096, 3000)
	p.WarmTable(tbl)
	cfg := DefaultHybridConfig()
	cfg.WindowCycles = 20_000
	hy := NewHybrid(cfg, p.Unit)
	th := cpu.NewThread(p.Hier, 0)

	if hy.Mode() != ModeAccel {
		t.Fatal("hybrid must start in accelerator mode")
	}
	// Phase 1: thousands of distinct flows → stays in accel mode.
	for i := uint64(0); i < 3000; i++ {
		v, ok := hy.Lookup(th, tbl, key16(i))
		if !ok || v != i*2+1 {
			t.Fatalf("hybrid lookup %d wrong", i)
		}
	}
	if hy.Mode() != ModeAccel {
		t.Fatal("high flow count switched hybrid to software")
	}
	// Phase 2: only 4 hot flows → must switch to software.
	for i := 0; i < 20000; i++ {
		hy.Lookup(th, tbl, key16(uint64(i%4)))
	}
	if hy.Mode() != ModeSoftware {
		t.Fatal("hybrid did not switch to software for a tiny flow set")
	}
	sw, hw := hy.Lookups()
	if sw == 0 || hw == 0 {
		t.Fatalf("lookups sw=%d hw=%d; both modes should have run", sw, hw)
	}
	// Phase 3: flow count explodes again → back to accel.
	for i := 0; i < 30000; i++ {
		hy.Lookup(th, tbl, key16(uint64(i%3000)))
	}
	if hy.Mode() != ModeAccel {
		t.Fatal("hybrid did not switch back to accelerator mode")
	}
	if hy.Switches() < 2 {
		t.Fatalf("switches = %d, want >= 2", hy.Switches())
	}
}

func TestMetadataCacheLRU(t *testing.T) {
	c := NewMetadataCache(2)
	c.Put(TableMeta{Base: 100})
	c.Put(TableMeta{Base: 200})
	c.Get(100) // 100 is now MRU
	c.Put(TableMeta{Base: 300})
	if _, ok := c.Get(200); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(100); !ok {
		t.Fatal("MRU entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}
