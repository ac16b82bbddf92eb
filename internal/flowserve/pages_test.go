package flowserve

import (
	"runtime"
	"testing"

	"halo/internal/sim"
	"halo/internal/stats"
)

// checkPages checks sh's slot allocator against its
// invariants: the allocated pages are exactly the first ceil(next/pageSlots);
// every page holds pageSlots slots but the last, which is cut to the shard's
// capacity; and next is at most maxResident, the most keys the table has held
// at once, because a recycled slot goes out before a never-used one. It
// returns how many pages are allocated and whether the last one is.
func checkPages(t *testing.T, op int, sh *shard, maxResident int) (pages int, lastAllocated bool) {
	t.Helper()
	if want := (sh.capacity + pageMask) >> pageShift; uint64(len(sh.pages)) != want {
		t.Fatalf("op %d: capacity %d has %d pages in its table, want %d", op, sh.capacity, len(sh.pages), want)
	}
	if sh.next > uint64(maxResident) {
		t.Fatalf("op %d: next = %d, but at most %d keys were ever resident: a recycled slot was passed over", op, sh.next, maxResident)
	}
	used := int((sh.next + pageMask) >> pageShift)
	for p, page := range sh.pages {
		if (page != nil) != (p < used) {
			t.Fatalf("op %d: page %d allocated = %v with next = %d (want the first %d pages)", op, p, page != nil, sh.next, used)
		}
		slots := uint64(pageSlots)
		if p == len(sh.pages)-1 {
			slots = sh.capacity - uint64(p)<<pageShift
			lastAllocated = page != nil
		}
		if page != nil && uint64(len(page)) != slots*uint64(sh.kvStride) {
			t.Fatalf("op %d: page %d of a %d-slot shard holds %d words, want %d slots of %d",
				op, p, sh.capacity, len(page), slots, sh.kvStride)
		}
	}
	return used, lastAllocated
}

// TestSlotPagesAgainstModel runs a seeded op stream over a one-shard table
// whose capacity is not a page multiple, checked exactly against a map (the
// fuzz harness's model) and, after every op, against the slot allocator's
// invariants. FuzzFlowServeOps' shards hold 16 slots and never leave page 0;
// this stream fills past seven of the table's eight pages first, then
// churns, scans and purges across them. The capacity leaves the bucket array
// two entries spare, so near full a displacement search fails too, and a
// placement that took its slot before knowing it would succeed leaks it.
func TestSlotPagesAgainstModel(t *testing.T) {
	const (
		capacity = 8*pageSlots - 2 // 1024 buckets of 8
		fill     = 7*pageSlots + 512
		universe = 12_000
		churn    = 20_000
	)
	var data []byte
	add := func(kind byte, key uint64, val byte) {
		data = append(data, kind, byte(key), byte(key>>8), val)
	}
	for i := uint64(0); i < fill; i++ {
		add(0, i, byte(i))
	}
	// Op kinds as applyOps numbers them, weighted by repetition: inserts
	// outrun deletes ten to one (a key universe ~90 % resident would overfill
	// the table) so the table keeps hitting ErrTableFull, with lookups,
	// batches and updates between. Rarer, as they walk the whole table: a
	// scan or a 1/256 purge.
	mix := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 3, 3, 4}
	rng := sim.NewRand(0x9a6e5)
	for i := 0; i < churn; i++ {
		kind := mix[rng.Uint64n(uint64(len(mix)))]
		key := rng.Uint64n(universe)
		switch rng.Uint64n(1000) {
		case 0, 1, 2, 3, 4:
			kind = 5
		case 5:
			kind = 6
		}
		if kind == 5 || kind == 6 {
			// lo's top byte, then the width in 1/256ths of the hash space:
			// scans any width, purges 1/256.
			key = rng.Uint64n(256) | rng.Uint64n(256)<<8
			if kind == 6 {
				key &= 0xff
			}
		}
		add(kind, key, byte(rng.Uint64()))
	}

	tbl := mustNew(t, Config{Shards: 1, Entries: capacity, KeyLen: 20})
	maxResident, maxPages, lastSeen := 0, 0, false
	applyOps(t, tbl, universe, data, func(op, resident int) {
		maxResident = max(maxResident, resident)
		pages, last := checkPages(t, op, tbl.shards[0], maxResident)
		maxPages, lastSeen = max(maxPages, pages), lastSeen || last
	})
	s := tbl.Stats()
	t.Logf("max resident %d, max pages %d, capacity %d, %+v", maxResident, maxPages, tbl.Capacity(), s)
	if maxPages < 8 || !lastSeen {
		t.Fatalf("stream reached %d pages (want 8); last page allocated: %v", maxPages, lastSeen)
	}
	if s.InsertFull == 0 || s.Deletes == 0 {
		t.Fatalf("stream missed a regime (full inserts, deletes): %+v", s)
	}
}

// heapInuse is the heap's in-use bytes after two collections: sync.Pool's
// victim cache (earlier tests' pooled batches) survives exactly one, and a
// single collection left the reading up to 5 % short of the table's growth.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestBytesPerFlow sizes a table as the repository benchmark does (a power
// of two at least 1.25× the flows, 8 shards, 20-byte keys) and fills it. The
// heap must grow by at most 44 B a flow, ≈ 40.2 expected: 32 of slot and 8
// of 4-byte bucket entries, two slots of capacity to a flow (8-byte entries
// read 48.2; slots allocated up front for the whole capacity, with a
// prebuilt free list, 88). The flowserve.bytes gauge must account for that
// growth to within 5 %, and a Delete then an Insert of the same key must
// leave it where it was.
func TestBytesPerFlow(t *testing.T) {
	const flows = 1 << 18
	keys := make([][]byte, flows)
	for i := range keys {
		keys[i] = key20(uint64(i))
	}
	entries := uint64(1)
	for entries < flows*5/4 {
		entries <<= 1
	}
	gauge := func(tbl *Table) uint64 {
		snap := stats.NewSnapshot()
		tbl.CollectInto(snap)
		return snap.Counter("flowserve.bytes")
	}

	heap0 := heapInuse()
	tbl := mustNew(t, Config{Shards: 8, Entries: entries, KeyLen: 20})
	for i, k := range keys {
		if err := tbl.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	growth := heapInuse() - heap0
	perFlow := float64(growth) / flows
	t.Logf("%d flows in %d slots: heap +%d B (%.2f B/flow), flowserve.bytes %d", flows, entries, growth, perFlow, gauge(tbl))
	if perFlow > 44 {
		t.Errorf("heap grew %.2f B per flow, want <= 44", perFlow)
	}
	if g := float64(gauge(tbl)); g < 0.95*float64(growth) || g > 1.05*float64(growth) {
		t.Errorf("flowserve.bytes = %.0f, heap grew %d: more than 5 %% apart", g, growth)
	}

	// Enough round trips that every shard's share would cross a page
	// boundary if an insert took a fresh slot instead of the recycled one.
	// The first pass gives each shard its recycled list; the second must
	// move nothing.
	roundTrips := func() {
		for i, k := range keys[:16*pageSlots] {
			if !tbl.Delete(k) {
				t.Fatalf("Delete of resident key %d failed", i)
			}
			if err := tbl.Insert(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrips()
	before := gauge(tbl)
	roundTrips()
	if after := gauge(tbl); after != before {
		t.Errorf("flowserve.bytes moved from %d to %d across Delete then Insert", before, after)
	}
}
