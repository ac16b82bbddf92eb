package noc

import (
	"testing"
	"testing/quick"
)

func TestRingHopsShortestWay(t *testing.T) {
	r := NewRing(RingConfig{Stops: 16, HopCycles: 2, InjectDelay: 3})
	cases := []struct{ from, to, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 8, 8}, {0, 9, 7}, {0, 15, 1}, {3, 12, 7}, {15, 1, 2},
	}
	for _, c := range cases {
		if got := r.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestRingHopsSymmetric(t *testing.T) {
	r := NewRing(DefaultRingConfig())
	check := func(a, b uint8) bool {
		from, to := int(a)%16, int(b)%16
		return r.Hops(from, to) == r.Hops(to, from)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingDelayLocalVsFar(t *testing.T) {
	r := NewRing(DefaultRingConfig())
	local := r.Delay(5, 5)
	far := r.Delay(0, 8)
	if local != 3 {
		t.Fatalf("local delay = %d, want inject cost 3", local)
	}
	if far != 3+8*2 {
		t.Fatalf("far delay = %d, want 19", far)
	}
}

func TestSliceHashUniform(t *testing.T) {
	const slices = 16
	counts := make([]int, slices)
	const lines = 160000
	for i := 0; i < lines; i++ {
		counts[SliceHash(uint64(i)*64, slices)]++
	}
	for s, c := range counts {
		if c < lines/slices*85/100 || c > lines/slices*115/100 {
			t.Fatalf("slice %d got %d lines, want ~%d", s, c, lines/slices)
		}
	}
}

func TestDistributorSameTableSameSlice(t *testing.T) {
	r := NewRing(DefaultRingConfig())
	d := NewQueryDistributor(r, DispatchByTable)
	s0, _ := d.Target(0, 0x10000, 0x2000)
	for core := 0; core < 16; core++ {
		s, _ := d.Target(core, 0x10000, uint64(core)*4096)
		if s != s0 {
			t.Fatalf("same table dispatched to different slices: %d vs %d", s, s0)
		}
	}
}

func TestDistributorBusyDiversion(t *testing.T) {
	r := NewRing(DefaultRingConfig())
	d := NewQueryDistributor(r, DispatchByTable)
	home, _ := d.Target(0, 0x10000, 0)
	d.SetBusy(home, true)
	diverted, _ := d.Target(0, 0x10000, 0)
	if diverted == home {
		t.Fatal("busy accelerator still received the query")
	}
	// Diversion picks an adjacent slice.
	if r.Hops(home, diverted) != 1 {
		t.Fatalf("diverted %d hops away, want nearest", r.Hops(home, diverted))
	}
	if d.Stats().Diverted != 1 {
		t.Fatalf("diverted stat = %d, want 1", d.Stats().Diverted)
	}
	d.SetBusy(home, false)
	back, _ := d.Target(0, 0x10000, 0)
	if back != home {
		t.Fatal("cleared busy bit did not restore home dispatch")
	}
}

func TestDistributorAllBusyFallsBack(t *testing.T) {
	r := NewRing(DefaultRingConfig())
	d := NewQueryDistributor(r, DispatchByTable)
	for i := 0; i < 16; i++ {
		d.SetBusy(i, true)
	}
	home, _ := d.Target(0, 0x10000, 0)
	if home < 0 || home >= 16 {
		t.Fatalf("all-busy dispatch out of range: %d", home)
	}
}

func TestDistributorRoundRobinCoversAllSlices(t *testing.T) {
	r := NewRing(DefaultRingConfig())
	d := NewQueryDistributor(r, DispatchRoundRobin)
	seen := make(map[int]bool)
	for i := 0; i < 16; i++ {
		s, _ := d.Target(0, 0x10000, 0)
		seen[s] = true
	}
	if len(seen) != 16 {
		t.Fatalf("round robin covered %d slices, want 16", len(seen))
	}
}

func TestDistributorByKeyLineSpreads(t *testing.T) {
	r := NewRing(DefaultRingConfig())
	d := NewQueryDistributor(r, DispatchByKeyLine)
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		s, _ := d.Target(0, 0x10000, uint64(i)*64)
		seen[s] = true
	}
	if len(seen) < 12 {
		t.Fatalf("key-line dispatch used only %d slices", len(seen))
	}
}
