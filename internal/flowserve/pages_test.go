package flowserve

import (
	"fmt"
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
// this stream fills 30 of the table's 32 pages first, then churns, scans
// and purges across them. The capacity leaves the bucket array two
// entries spare, so near full a displacement search fails too, and a
// placement that took its slot before knowing it would succeed leaks it.
func TestSlotPagesAgainstModel(t *testing.T) {
	const (
		pages    = 32
		capacity = pages*pageSlots - 2 // 1024 buckets of 8
		fill     = 30 * pageSlots
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
	if maxPages < pages || !lastSeen {
		t.Fatalf("stream reached %d pages (want %d); last page allocated: %v", maxPages, pages, lastSeen)
	}
	if s.InsertFull == 0 || s.Deletes == 0 {
		t.Fatalf("stream missed a regime (full inserts, deletes): %+v", s)
	}
}

// gauge reads the table's flowserve.bytes.
func gauge(tbl *Table) uint64 {
	snap := stats.NewSnapshot()
	tbl.CollectInto(snap)
	return snap.Counter("flowserve.bytes")
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
// of two at least 1.25× the flows, 8 shards, 20-byte keys) and fills it, at
// 2^18 flows (2^19 slots, 2^15 flows a shard) and at table-zipf-churn's
// 100,000 (2^17 slots, ≈ 12,500 flows a shard, which no page size divides).
// The heap must grow by at most 44 B a flow, ≈ 40.2 expected at 2^18: 32 of
// slot and 8 of 4-byte bucket entries, two slots of capacity to a flow
// (8-byte entries read 48.2; slots allocated up front for the whole
// capacity, with a prebuilt free list, 88). The flowserve.bytes gauge must
// account for that growth to within 5 %. What it counts beyond the flows'
// slots, the bucket entries and the page tables is the slots allocated that
// no flow took, each shard's partly used last page: at most one 8 KiB page a
// shard (1,024-slot pages left ≈ 208 KB at 100,000 flows, 2.1 B/flow). A
// Delete then an Insert of the same key must leave the gauge where it was.
func TestBytesPerFlow(t *testing.T) {
	for _, flows := range []int{1 << 18, 100_000} {
		t.Run(fmt.Sprint(flows), func(t *testing.T) { checkBytesPerFlow(t, flows) })
	}
}

func checkBytesPerFlow(t *testing.T, flows int) {
	const (
		shards  = 8
		maxTail = shards * 8 << 10
	)
	keys := make([][]byte, flows)
	for i := range keys {
		keys[i] = key20(uint64(i))
	}
	entries := uint64(1)
	for entries < uint64(flows)*5/4 {
		entries <<= 1
	}

	heap0 := heapInuse()
	tbl := mustNew(t, Config{Shards: shards, Entries: entries, KeyLen: 20})
	for i, k := range keys {
		if err := tbl.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	growth := heapInuse() - heap0
	perFlow := float64(growth) / float64(flows)
	g := gauge(tbl)
	// 4 B a bucket entry, 24 B a page-table slice header.
	fixed := uint64(0)
	for _, sh := range tbl.shards {
		fixed += 4*uint64(len(sh.entries)) + 24*uint64(len(sh.pages))
	}
	slots := uint64(flows) * uint64(tbl.shards[0].kvStride) * 8
	tail := int64(g) - int64(slots+fixed)
	t.Logf("%d flows in %d slots: heap +%d B (%.2f B/flow); flowserve.bytes %d = %d of slots + %d of buckets and page tables + %d of unused tail",
		flows, entries, growth, perFlow, g, slots, fixed, tail)
	if perFlow > 44 {
		t.Errorf("heap grew %.2f B per flow, want <= 44", perFlow)
	}
	if f := float64(g); f < 0.95*float64(growth) || f > 1.05*float64(growth) {
		t.Errorf("flowserve.bytes = %d, heap grew %d: more than 5 %% apart", g, growth)
	}
	if tail < 0 || tail > maxTail {
		t.Errorf("unused slot tail %d B, want 0..%d (one 8 KiB page per shard)", tail, maxTail)
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
