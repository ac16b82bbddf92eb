package flowserve

import (
	"fmt"
	"time"
)

// Incremental, bounded-pause shard resize (DESIGN.md §12).
//
// A resize installs a second, larger region next to the live one and moves
// buckets across incrementally: every writer operation migrates at most
// migrateBuckets old-region buckets before doing its own work, and
// ResizeStep lets a caller tick migration forward explicitly (e.g. from a
// maintenance goroutine). The protocol keeps three invariants:
//
//  1. Every live key is reachable in old ∪ cur at every instant. A key
//     moves by first writing its slot in cur, then — inside one seqlock
//     window — publishing the cur bucket entry and clearing the old one.
//     Readers probing between those two stores can see the key in both
//     regions (same value either way), never in neither.
//  2. Readers are wait-free with respect to migration: they take no lock,
//     and a migration step invalidates at most the probes racing its
//     seqlock windows — the same retry cost an insert already imposes.
//  3. The pause a resize adds to any single writer operation is bounded by
//     the migration quantum (buckets per step × at most EntriesPerBucket
//     key moves each), not by the table size. Steps are timed into a
//     per-shard pause histogram (flowserve.resize.pause_* in stats).

// Grow raises the table's capacity to at least newEntries, spread across
// shards, by starting an incremental resize on every shard whose capacity
// must rise. It returns once the resizes are STARTED — migration proceeds
// in the background as writers touch each shard, or synchronously via
// ResizeStep. If a previous resize is still in flight on a shard, Grow
// finishes it first (synchronously) so regions never stack more than two
// deep. newEntries must exceed the current capacity.
func (t *Table) Grow(newEntries uint64) error {
	if newEntries <= t.Capacity() {
		return ErrShrink
	}
	perShard := (newEntries + uint64(len(t.shards)) - 1) / uint64(len(t.shards))
	if perShard >= maxPerShard {
		return fmt.Errorf("flowserve: %d entries per shard, want < %d: a bucket entry holds a 24-bit slot index beside an 8-bit signature", perShard, maxPerShard)
	}
	for _, sh := range t.shards {
		sh.mu.Lock()
		sh.finishMigrationLocked()
		if sh.regions.Load().old != nil {
			// Only reachable when the in-flight resize stalled: the current
			// region is at 100% occupancy with no displacement path, which
			// needs deletes, not more regions (at most two may exist).
			sh.mu.Unlock()
			return fmt.Errorf("flowserve: shard resize stalled at full occupancy; delete entries and retry Grow")
		}
		if perShard > sh.regions.Load().cur.capacity {
			sh.startGrowLocked(perShard)
		}
		sh.mu.Unlock()
	}
	return nil
}

// Resizing reports whether any shard has a migration in flight.
func (t *Table) Resizing() bool {
	for _, sh := range t.shards {
		if sh.regions.Load().old != nil {
			return true
		}
	}
	return false
}

// ResizeStep migrates up to buckets old-region buckets on every shard that
// is mid-resize (buckets <= 0 means the writers' per-operation quantum) and
// reports whether any migration remains. Callers that want growth to
// complete without waiting for organic write traffic loop:
//
//	for t.ResizeStep(64) {
//	}
func (t *Table) ResizeStep(buckets int) bool {
	remaining := false
	for _, sh := range t.shards {
		if sh.regions.Load().old == nil {
			continue
		}
		sh.mu.Lock()
		if buckets <= 0 {
			buckets = migrateBuckets
		}
		sh.migrateLocked(buckets)
		if sh.regions.Load().old != nil {
			remaining = true
		}
		sh.mu.Unlock()
	}
	return remaining
}

// startGrowLocked installs a fresh region of newCap entries as the current
// region and demotes the live one to "old", resetting the migration cursor.
// The fresh region is a bucket array and an empty page table: its slot pages
// arrive as keys do. Caller must hold mu and have no resize in flight. The
// pointer swap moves no keys, so readers need no seqlock window: both the
// pre- and post-swap region sets contain every live key. The allocation is
// the one resize pause the migration-step histogram does not see, so its
// longest time is kept apart (flowserve.resize.grow_start_max_ns).
func (sh *shard) startGrowLocked(newCap uint64) {
	rp := sh.regions.Load()
	if rp.old != nil {
		panic("flowserve: startGrow with a resize already in flight")
	}
	start := time.Now()
	next := newRegion(newCap)
	sh.growStartMax = max(sh.growStartMax, uint64(time.Since(start).Nanoseconds()))
	sh.migrated = 0
	sh.regions.Store(&regionPair{cur: next, old: rp.cur})
	sh.c.grows.Add(1)
}

// finishMigrationLocked drains an in-flight resize synchronously. Caller
// must hold mu.
func (sh *shard) finishMigrationLocked() {
	for sh.regions.Load().old != nil {
		before := sh.migrated
		sh.migrateLocked(migrateBuckets)
		if sh.regions.Load().old != nil && sh.migrated == before {
			// A stalled migration (current region truly full) cannot be
			// drained; the caller is about to grow again, which unsticks it.
			return
		}
	}
}

// migrateLocked moves up to n old-region buckets into the current region.
// Caller must hold mu. No-op when no resize is in flight. When the last
// bucket lands, the old region is dropped and readers fall back to
// single-region probes.
func (sh *shard) migrateLocked(n int) {
	rp := sh.regions.Load()
	if rp.old == nil {
		return
	}
	start := time.Now()
	stepped := false
	for i := 0; i < n && sh.migrated < rp.old.bucketCount; i++ {
		if !sh.migrateBucketLocked(rp, sh.migrated) {
			// Could not place a key (current region full): leave the
			// cursor so a later step — after deletes free slots — retries.
			sh.c.resizeStalls.Add(1)
			break
		}
		sh.migrated++
		sh.c.migratedBuckets.Add(1)
		stepped = true
	}
	if stepped {
		sh.c.resizeSteps.Add(1)
		sh.pauseHist.Observe(uint64(time.Since(start).Nanoseconds()))
	}
	if sh.migrated == rp.old.bucketCount {
		// Migration complete: drop the old region. Readers holding the
		// two-region pair keep probing a fully-empty old region until
		// their next load — harmless.
		sh.regions.Store(&regionPair{cur: rp.cur})
	}
}

// migrateBucketLocked moves every live entry of old bucket b into the
// current region. Caller must hold mu. Returns false if a key could not be
// placed (no free slot / displacement path in cur) — the bucket is left
// partially migrated and safe to retry: moved entries are already cleared
// from the old bucket.
func (sh *shard) migrateBucketLocked(rp *regionPair, b uint64) bool {
	var kw [maxKeyWords]uint64
	var kb [MaxKeyLen]byte
	for e := b * EntriesPerBucket; e < (b+1)*EntriesPerBucket; e++ {
		ent := rp.old.entries[e].Load()
		if ent == 0 {
			continue
		}
		// Rehash for the grown region's geometry: its bucket pair widens,
		// and its signature may be a bit narrower (cur's slot indexes can
		// need one more bit), so placeLocked derives both from the primary
		// hash rather than reusing the old entry's.
		_, h, value := sh.residentKey(rp.old, ent>>rp.old.sigBits, &kw, &kb)
		if !sh.placeLocked(rp.cur, &kw, sh.kvStride-1, h, value, &rp.old.entries[e]) {
			return false
		}
		sh.c.migratedKeys.Add(1)
	}
	return true
}
