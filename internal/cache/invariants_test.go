package cache

import (
	"testing"

	"halo/internal/mem"
	"halo/internal/noc"
	"halo/internal/sim"
)

// checkInvariants asserts the structural properties the hierarchy must
// preserve after any access sequence:
//
//  1. inclusivity: a line in a core's L1 is in its L2; a line in any private
//     cache is in the LLC with that core's directory bit set;
//  2. single-writer: at most one core holds a line in M (or E) state;
//  3. directory soundness: a set directory bit implies the core actually
//     holds the line (the converse — stale set bits — would only cost
//     spurious snoops, but this model keeps the directory exact);
//  4. no line is simultaneously M in one core and S in another.
func checkInvariants(t *testing.T, h *Hierarchy) {
	t.Helper()
	type holder struct {
		core  int
		state State
	}
	holders := map[mem.Addr][]holder{}
	for core := 0; core < h.cfg.Cores; core++ {
		for _, set := range h.l1[core].sets {
			for _, l := range set {
				if !l.valid() {
					continue
				}
				if h.l2[core].peek(l.tag) == nil {
					t.Fatalf("inclusivity: %#x in core %d L1 but not L2", l.tag, core)
				}
			}
		}
		for _, set := range h.l2[core].sets {
			for _, l := range set {
				if !l.valid() {
					continue
				}
				home := h.homeSlice(l.tag)
				ll := h.llc[home].peek(l.tag)
				if ll == nil {
					t.Fatalf("inclusivity: %#x in core %d L2 but not LLC", l.tag, core)
				}
				if ll.coreValid&(1<<core) == 0 {
					t.Fatalf("directory: %#x held by core %d but bit unset", l.tag, core)
				}
				holders[l.tag] = append(holders[l.tag], holder{core, l.state})
			}
		}
	}
	// Directory bits point at actual holders.
	for s := 0; s < h.cfg.Slices; s++ {
		for _, set := range h.llc[s].sets {
			for _, l := range set {
				if !l.valid() {
					continue
				}
				for core := 0; core < h.cfg.Cores; core++ {
					if l.coreValid&(1<<core) == 0 {
						continue
					}
					if h.l2[core].peek(l.tag) == nil && h.l1[core].peek(l.tag) == nil {
						t.Fatalf("directory: bit set for core %d on %#x but line absent", core, l.tag)
					}
				}
			}
		}
	}
	// Single-writer / no M+S mixes.
	for addr, hs := range holders {
		exclusive := 0
		for _, x := range hs {
			if x.state == Modified || x.state == Exclusive {
				exclusive++
			}
		}
		if exclusive > 0 && len(hs) > 1 {
			t.Fatalf("coherence: %#x held by %d cores with an exclusive copy (%v)", addr, len(hs), hs)
		}
	}
}

func TestCoherenceInvariantsUnderRandomTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Slices = 8
	cfg.L1SizeBytes = 8 * mem.LineSize
	cfg.L1Ways = 2
	cfg.L2SizeBytes = 32 * mem.LineSize
	cfg.L2Ways = 4
	cfg.LLCSliceBytes = 32 * mem.LineSize
	cfg.LLCWays = 4
	ring := noc.NewRing(noc.RingConfig{Stops: 8, HopCycles: 2, InjectDelay: 3})
	h := New(cfg, ring, mem.NewDRAM(mem.DefaultDRAMConfig()))

	rng := sim.NewRand(1234)
	now := sim.Cycle(0)
	// Tight address pool forces constant sharing, invalidation, eviction
	// and back-invalidation.
	const poolLines = 96
	for i := 0; i < 30000; i++ {
		addr := mem.Addr(0x4000 + rng.Intn(poolLines)*mem.LineSize)
		core := rng.Intn(cfg.Cores)
		switch rng.Intn(8) {
		case 0, 1:
			h.CoreAccess(now, core, addr, true)
		case 2:
			h.AccelAccess(now, rng.Intn(cfg.Slices), addr, false)
		case 3:
			h.AccelAccess(now, rng.Intn(cfg.Slices), addr, true)
		case 4:
			h.SnapshotRead(now, core, addr)
		case 5:
			h.DMAWrite(addr)
		case 6:
			h.LockLine(now, rng.Intn(cfg.Slices), addr, now+sim.Cycle(rng.Intn(200)))
		default:
			h.CoreAccess(now, core, addr, false)
		}
		now += sim.Cycle(rng.Intn(50))
		if i%500 == 0 {
			checkInvariants(t, h)
		}
	}
	checkInvariants(t, h)
}

func TestCoherenceInvariantsFullSizeHierarchy(t *testing.T) {
	h := testHierarchy()
	rng := sim.NewRand(99)
	now := sim.Cycle(0)
	for i := 0; i < 20000; i++ {
		addr := mem.Addr(0x10000 + rng.Intn(4096)*mem.LineSize)
		core := rng.Intn(16)
		if rng.Intn(3) == 0 {
			h.CoreAccess(now, core, addr, true)
		} else {
			h.CoreAccess(now, core, addr, false)
		}
		if rng.Intn(5) == 0 {
			h.AccelAccess(now, rng.Intn(16), addr, rng.Intn(4) == 0)
		}
		now += sim.Cycle(rng.Intn(20))
	}
	checkInvariants(t, h)
}

func TestLatencyNeverNegativeUnderRandomTraffic(t *testing.T) {
	h := testHierarchy()
	rng := sim.NewRand(7)
	now := sim.Cycle(0)
	for i := 0; i < 10000; i++ {
		addr := mem.Addr(rng.Intn(1 << 20))
		res := h.CoreAccess(now, rng.Intn(16), addr, rng.Intn(2) == 0)
		if res.Done < res.Issued {
			t.Fatalf("access completed before issue: %+v", res)
		}
		if res.Done < now {
			t.Fatalf("access completed in the past")
		}
		now += sim.Cycle(rng.Intn(30))
	}
}
