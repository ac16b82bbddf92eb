package cache

import (
	"testing"

	"halo/internal/mem"
	"halo/internal/sim"
)

// TestAccessAllocatesNothing pins the allocation-free access path: once the
// caches and the port and bank calendars have warmed, no kind of access
// allocates. Each case checks first that it exercises the path it names.
func TestAccessAllocatesNothing(t *testing.T) {
	const lineAddr, sharedAddr = mem.Addr(0x4000), mem.Addr(0x8000)
	sharerKept := false // set when a write leaves core 1's copy valid
	for _, tc := range []struct {
		name string
		h    *Hierarchy
		// access runs the i-th access (or sharer round) at `at` and returns
		// the result the case is about; the next run starts at its Done.
		access func(h *Hierarchy, i int, at sim.Cycle) AccessResult
		want   HitWhere
	}{
		{"core L1 hit", testHierarchy(), func(h *Hierarchy, _ int, at sim.Cycle) AccessResult {
			return h.CoreAccess(at, 0, lineAddr, false)
		}, InL1},
		// smallHierarchy's LLC holds 64 lines, so cycling over 1024 lines
		// misses every time and fills from DRAM.
		{"core LLC miss", smallHierarchy(), func(h *Hierarchy, i int, at sim.Cycle) AccessResult {
			return h.CoreAccess(at, 0, mem.Addr(i%1024)*mem.LineSize, false)
		}, InMemory},
		// Core 1 reads the line core 0 last wrote, then core 0 writes it
		// again: core 0's Shared copy goes to the LLC for ownership and
		// invalidates core 1's.
		{"core write invalidates a sharer", testHierarchy(), func(h *Hierarchy, _ int, at sim.Cycle) AccessResult {
			rd := h.CoreAccess(at, 1, sharedAddr, false)
			wr := h.CoreAccess(rd.Done, 0, sharedAddr, true)
			sharerKept = sharerKept || h.l1[1].peek(sharedAddr) != nil
			return wr
		}, InLLC},
		{"accel local slice", testHierarchy(), func(h *Hierarchy, _ int, at sim.Cycle) AccessResult {
			return h.AccelAccess(at, h.homeSlice(lineAddr), lineAddr, false)
		}, InLLC},
		{"accel remote slice", testHierarchy(), func(h *Hierarchy, _ int, at sim.Cycle) AccessResult {
			return h.AccelAccess(at, (h.homeSlice(lineAddr)+1)%h.cfg.Slices, lineAddr, false)
		}, InLLC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r AccessResult
			i := 0
			run := func() {
				r = tc.access(tc.h, i, r.Done)
				i++
			}
			for i < 4096 {
				run()
			}
			if r.Where != tc.want || sharerKept {
				t.Fatalf("access served from %v, want %v (sharer kept: %v)", r.Where, tc.want, sharerKept)
			}
			if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
				t.Fatalf("%v allocs per access, want 0", allocs)
			}
		})
	}
}
