package cache

import (
	"encoding/binary"
	"hash"
	"hash/crc32"
	"math/rand"
	"testing"

	"halo/internal/mem"
	"halo/internal/sim"
)

// accessHistoryCRC is the fold of TestAccessHistory's history. Any change to
// what an access returns, to the counters, or to when the metadata-cache
// callback fires moves it.
const accessHistoryCRC = 0xd347f3c5

// TestAccessHistory pins the access path exactly: one seeded history of core
// loads and stores, accelerator reads and writes, locks, DMA writes and
// snapshot reads on a small hierarchy, with every AccessResult, every
// metadata-invalidation callback and the final Stats folded into one CRC.
// The history must reach every branch the fold is meant to cover.
func TestAccessHistory(t *testing.T) {
	h := smallHierarchy()
	crc := crc32.NewIEEE()
	invalidations := 0
	h.OnAccelInvalidate = func(lineAddr mem.Addr) {
		invalidations++
		fold(crc, uint64(lineAddr))
	}

	const (
		coreRead = iota
		coreWrite
		accelRead
		accelWrite
		kinds
	)
	var where [kinds][InMemory + 1]int
	rng := rand.New(rand.NewSource(7))
	// A few hot lines stay in the private caches; the rest of the footprint
	// is twice the LLC, so fills, evictions and write-backs keep happening.
	addr := func() mem.Addr {
		if rng.Intn(3) == 0 {
			return mem.Addr(rng.Intn(4)) * mem.LineSize
		}
		return mem.Addr(rng.Intn(128)) * mem.LineSize
	}
	now := sim.Cycle(0)
	for step := 0; step < 20000; step++ {
		a, core, slice := addr(), rng.Intn(4), rng.Intn(4)
		var r AccessResult
		kind := -1
		switch op := rng.Intn(20); {
		case op < 6:
			kind, r = coreRead, h.CoreAccess(now, core, a, false)
		case op < 10:
			kind, r = coreWrite, h.CoreAccess(now, core, a, true)
		case op < 13:
			kind, r = accelRead, h.AccelAccess(now, slice, a, false)
		case op < 15:
			kind, r = accelWrite, h.AccelAccess(now, slice, a, true)
		case op < 17:
			fold(crc, uint64(h.LockLine(now, slice, a, now+sim.Cycle(rng.Intn(400)))))
		case op < 18:
			h.DMAWrite(a)
		case op < 19:
			h.MarkAccelValid(a)
		default:
			r = h.SnapshotRead(now, core, a)
		}
		if kind >= 0 {
			where[kind][r.Where]++
		}
		fold(crc, uint64(r.Issued), uint64(r.Done), uint64(r.Where))
		now += sim.Cycle(rng.Intn(30))
	}
	s := h.Stats()
	fold(crc, s.L1Hits, s.L1Misses, s.L2Hits, s.L2Misses, s.LLCHits, s.LLCMisses,
		s.RemoteCacheHits, s.AccelAccesses, s.AccelAccessCycles, s.AccelLLCMisses,
		s.LockStallCycles, s.LockStalls, s.BackInvalidations, s.Writebacks,
		uint64(invalidations))

	for _, c := range []struct {
		name string
		n    int
	}{
		{"core L1 hit", where[coreRead][InL1] + where[coreWrite][InL1]},
		{"core L2 hit", where[coreRead][InL2] + where[coreWrite][InL2]},
		{"core LLC hit", where[coreRead][InLLC] + where[coreWrite][InLLC]},
		{"core DRAM fill", where[coreRead][InMemory] + where[coreWrite][InMemory]},
		{"accel DRAM fill", where[accelRead][InMemory] + where[accelWrite][InMemory]},
		{"remote-cache hit on a core read", where[coreRead][InRemoteCache]},
		{"remote-cache hit on a core write", where[coreWrite][InRemoteCache]},
		{"remote-cache hit on an accel read", where[accelRead][InRemoteCache]},
		{"remote-cache hit on an accel write", where[accelWrite][InRemoteCache]},
		{"lock stall", int(s.LockStalls)},
		{"back-invalidation", int(s.BackInvalidations)},
		{"writeback", int(s.Writebacks)},
		{"metadata-invalidation callback", invalidations},
	} {
		if c.n == 0 {
			t.Errorf("the history never reached: %s", c.name)
		}
	}
	checkInvariants(t, h)
	if got := crc.Sum32(); got != accessHistoryCRC {
		t.Fatalf("access history CRC %#08x, want %#08x (stats %+v, %d callbacks)",
			got, accessHistoryCRC, s, invalidations)
	}
}

func fold(crc hash.Hash32, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		crc.Write(b[:])
	}
}
