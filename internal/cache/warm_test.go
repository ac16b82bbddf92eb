package cache

import (
	"math/rand"
	"slices"
	"testing"

	"halo/internal/mem"
	"halo/internal/sim"
)

// The reference below is the warm path as it was before ensureLLC: four scans
// of the set — peek, victim inside the eviction, then peek and victim again
// inside the install — with the victim way zeroed in between. The tests drive
// two hierarchies through identical histories, warm one through WarmLLC /
// WarmRange and the other through this, and require every way of every
// array, every lruTick and every counter to come out the same.

// refVictim is the old victim(): the lowest invalid way, else the LRU way
// skipping locked lines, else the LRU way outright.
func refVictim(a *array, lineAddr mem.Addr) *line {
	idx := a.setIndex(lineAddr)
	set := a.sets[idx]
	var lru, lruAny *line
	for i := range set {
		l := &set[i]
		if !l.valid() {
			return l
		}
		if lruAny == nil || l.lru < lruAny.lru {
			lruAny = l
		}
		if l.locked {
			continue
		}
		if lru == nil || l.lru < lru.lru {
			lru = l
		}
	}
	if len(set) < a.ways {
		return a.nextWay(idx) // every way past the slice is invalid
	}
	if lru == nil {
		return lruAny
	}
	return lru
}

// refInstall is the old install(): tick, then reuse a present line in place
// or overwrite a freshly chosen victim.
func refInstall(a *array, lineAddr mem.Addr, st State) *line {
	a.lruTick++
	if l := a.peek(lineAddr); l != nil {
		l.state = st
		l.lru = a.lruTick
		return l
	}
	v := refVictim(a, lineAddr)
	*v = line{tag: lineAddr, state: st, lru: a.lruTick}
	return v
}

func refWarmLLC(h *Hierarchy, addr mem.Addr) {
	lineAddr := mem.LineAddr(addr)
	home := h.homeSlice(lineAddr)
	if h.llc[home].peek(lineAddr) != nil {
		return
	}
	if v := refVictim(h.llc[home], lineAddr); v.valid() {
		h.evictLLC(0, v)
		*v = line{}
	}
	refInstall(h.llc[home], lineAddr, Exclusive)
}

// requireSameState compares two hierarchies way by way. A set that was never
// filled and a set whose slice is empty are the same set.
func requireSameState(t *testing.T, step string, got, want *Hierarchy) {
	t.Helper()
	same := func(name string, g, w []*array) {
		t.Helper()
		for i := range g {
			if g[i].lruTick != w[i].lruTick || g[i].hits != w[i].hits || g[i].misses != w[i].misses {
				t.Fatalf("%s: %s[%d] tick/hits/misses %d/%d/%d, reference %d/%d/%d", step, name, i,
					g[i].lruTick, g[i].hits, g[i].misses, w[i].lruTick, w[i].hits, w[i].misses)
			}
			for s := range g[i].sets {
				if !slices.Equal(g[i].sets[s], w[i].sets[s]) {
					t.Fatalf("%s: %s[%d] set %d\n got  %+v\n want %+v", step, name, i, s, g[i].sets[s], w[i].sets[s])
				}
			}
		}
	}
	same("l1", got.l1, want.l1)
	same("l2", got.l2, want.l2)
	same("llc", got.llc, want.llc)
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats %+v, reference %+v", step, got.Stats(), want.Stats())
	}
	if got.dram.Stats() != want.dram.Stats() {
		t.Fatalf("%s: DRAM stats %+v, reference %+v", step, got.dram.Stats(), want.dram.Stats())
	}
}

// hierPair applies one history to two hierarchies.
type hierPair struct{ got, want *Hierarchy }

func newHierPair() hierPair { return hierPair{smallHierarchy(), smallHierarchy()} }

func (p hierPair) both(f func(h *Hierarchy)) { f(p.got); f(p.want) }

func (p hierPair) warm(addr mem.Addr) {
	p.got.WarmLLC(addr)
	refWarmLLC(p.want, addr)
}

// sameSetLines returns n distinct line addresses homed at one slice and
// falling into one of its sets, so they compete for the same ways.
func sameSetLines(h *Hierarchy, n int) []mem.Addr {
	var out []mem.Addr
	first := mem.Addr(0x40000)
	for a := first; len(out) < n; a += mem.LineSize {
		if h.homeSlice(a) == h.homeSlice(first) &&
			h.llc[0].setIndex(a) == h.llc[0].setIndex(first) {
			out = append(out, a)
		}
	}
	return out
}

func TestOneScanWarmMatchesFourScanReference(t *testing.T) {
	ways := smallHierarchy().cfg.LLCWays

	t.Run("line already present", func(t *testing.T) {
		p := newHierPair()
		lines := sameSetLines(p.got, ways)
		for _, a := range lines {
			p.warm(a)
		}
		tick := p.got.llc[p.got.homeSlice(lines[0])].lruTick
		p.warm(lines[0]) // resident: no tick, no LRU touch, so lines[0] stays the victim
		if got := p.got.llc[p.got.homeSlice(lines[0])].lruTick; got != tick {
			t.Fatalf("re-warming a resident line moved lruTick %d -> %d", tick, got)
		}
		requireSameState(t, "re-warm", p.got, p.want)
	})

	t.Run("set with invalid ways", func(t *testing.T) {
		p := newHierPair()
		lines := sameSetLines(p.got, ways)
		p.warm(lines[0]) // one way filled, the rest never used
		requireSameState(t, "first fill", p.got, p.want)
		// A hole below a filled way: the lowest invalid way must win. (An
		// LLC way is never emptied in use, but slot is also the private
		// arrays' victim choice, and they get holes from invalidations.)
		p.warm(lines[1])
		home := p.got.homeSlice(lines[0])
		p.both(func(h *Hierarchy) { h.llc[home].invalidate(lines[0]) })
		p.warm(lines[0])
		requireSameState(t, "fill the hole", p.got, p.want)
		if set := p.got.llc[home].sets[p.got.llc[home].setIndex(lines[0])]; set[0].tag != lines[0] {
			t.Fatalf("refill went to way %+v, not the hole at way 0", set)
		}
	})

	t.Run("full set with a locked way", func(t *testing.T) {
		p := newHierPair()
		lines := sameSetLines(p.got, ways+1)
		for _, a := range lines[:ways] {
			p.warm(a)
		}
		p.both(func(h *Hierarchy) { h.LockLine(0, 0, lines[0], 1_000_000) }) // the LRU way
		p.warm(lines[ways])
		requireSameState(t, "evict around the lock", p.got, p.want)
		if _, _, in := p.got.Present(0, lines[0]); !in {
			t.Fatal("the locked LRU line was evicted")
		}
	})

	t.Run("victim with core-valid bits is back-invalidated", func(t *testing.T) {
		p := newHierPair()
		lines := sameSetLines(p.got, ways+1)
		p.both(func(h *Hierarchy) { h.CoreAccess(0, 2, lines[0], false) })
		for _, a := range lines[1:] {
			p.warm(a)
		}
		requireSameState(t, "back-invalidate", p.got, p.want)
		if p.got.Stats().BackInvalidations == 0 {
			t.Fatal("no back-invalidation counted")
		}
		if in1, in2, _ := p.got.Present(2, lines[0]); in1 || in2 {
			t.Fatal("evicted line still in the core's private caches")
		}
	})

	t.Run("dirty victim is written back", func(t *testing.T) {
		p := newHierPair()
		lines := sameSetLines(p.got, ways+1)
		p.both(func(h *Hierarchy) { h.DMAWrite(lines[0]) })
		for _, a := range lines[1:] {
			p.warm(a)
		}
		requireSameState(t, "write-back", p.got, p.want)
		if p.got.Stats().Writebacks != 1 {
			t.Fatalf("Writebacks = %d, want 1", p.got.Stats().Writebacks)
		}
	})

	t.Run("warm range", func(t *testing.T) {
		p := newHierPair()
		first, last := mem.Addr(0x1008), mem.Addr(0x1008+40*mem.LineSize+17)
		p.got.WarmRange(first, last)
		for a := mem.LineAddr(first); a <= last; a += mem.LineSize {
			refWarmLLC(p.want, a)
		}
		requireSameState(t, "range", p.got, p.want)
	})
}

// TestWarmEquivalenceProperty interleaves warms with timed traffic, locks and
// DMA over a footprint a few times the LLC, comparing after every warm.
func TestWarmEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newHierPair()
		addr := func() mem.Addr { return mem.Addr(rng.Intn(400)) * mem.LineSize }
		now := sim.Cycle(0)
		for step := 0; step < 3000; step++ {
			a, core, slice := addr(), rng.Intn(4), rng.Intn(4)
			switch rng.Intn(8) {
			case 0, 1, 2:
				p.warm(a)
			case 3:
				n := mem.Addr(rng.Intn(24)) * mem.LineSize
				p.got.WarmRange(a, a+n)
				for l := a; l <= a+n; l += mem.LineSize {
					refWarmLLC(p.want, l)
				}
			case 4:
				write := rng.Intn(3) == 0
				p.both(func(h *Hierarchy) { h.CoreAccess(now, core, a, write) })
			case 5:
				write := rng.Intn(4) == 0
				p.both(func(h *Hierarchy) { h.AccelAccess(now, slice, a, write) })
			case 6:
				p.both(func(h *Hierarchy) { h.LockLine(now, slice, a, now+sim.Cycle(500)) })
			case 7:
				p.both(func(h *Hierarchy) { h.DMAWrite(a) })
			}
			now += 20
			requireSameState(t, "property step", p.got, p.want)
		}
		if s := p.got.Stats(); s.BackInvalidations == 0 || s.Writebacks == 0 {
			t.Fatalf("seed %d never exercised back-invalidation or write-back: %+v", seed, s)
		}
		checkInvariants(t, p.got)
	}
}

// TestNeverUsedTailIsInvalid pins what lets a scan stop at the slice's end:
// ways fill lowest first, so everything past the slice has never held a line.
func TestNeverUsedTailIsInvalid(t *testing.T) {
	a := newArray(8*4*mem.LineSize, 4) // 8 sets x 4 ways
	for i := 0; i < 3; i++ {
		lineAddr := mem.Addr(i*8) * mem.LineSize // all in set 0
		l, hit := a.slot(lineAddr)
		if hit || l.valid() {
			t.Fatalf("fill %d: slot returned a hit or a valid way on a non-full set", i)
		}
		a.fill(l, false, lineAddr, Shared)
		if got := len(a.sets[0]); got != i+1 {
			t.Fatalf("after %d fills the set covers %d ways", i+1, got)
		}
	}
	a.invalidate(0)                              // a hole at way 0
	l, _ := a.slot(mem.Addr(5*8) * mem.LineSize) // must reuse it, not grow
	if l != &a.sets[0][0] || len(a.sets[0]) != 3 {
		t.Fatalf("slot skipped the hole: way %p, set covers %d ways", l, len(a.sets[0]))
	}
}

// BenchmarkWarmRange warms a 2M-entry table's worth of lines (its buckets
// and key-value slots, ~80 MiB) into a fresh default LLC, 2.5 times its
// size, so most fills evict.
func BenchmarkWarmRange(b *testing.B) {
	const lines = 1_310_720
	for range b.N {
		b.StopTimer()
		h := testHierarchy()
		b.StartTimer()
		h.WarmRange(0x10000, 0x10000+lines*mem.LineSize-1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lines, "ns/line")
}
