package flowserve

import (
	"sync/atomic"
	"unsafe"

	"halo/internal/stats"
)

// TableStats aggregates the per-shard operation counters and the batched
// read path's stripes. Reader-side counters (Lookups, Hits, Retries,
// LockFallbacks, BatchCalls, BatchKeys) are updated with atomics on the
// serving path, so a snapshot taken under load is a consistent-enough
// monotonic view — Hits never exceeds Lookups in it — and exact when
// quiescent.
type TableStats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	BadLenLookups uint64 // wrong-length keys: table-level, never charged to a shard
	Retries       uint64 // seqlock revalidation failures (discarded probes)
	LockFallbacks uint64 // optimistic attempts exhausted → locked probe
	Inserts       uint64
	InsertExists  uint64
	InsertFull    uint64
	Updates       uint64
	Deletes       uint64
	Displacements uint64
	BatchCalls    uint64 // per-shard groups served by LookupMany
	BatchKeys     uint64

	Grows           uint64 // shard resizes started (one per doubling)
	ResizeSteps     uint64 // bounded migration steps executed
	MigratedBuckets uint64
	MigratedKeys    uint64
	ResizeStalls    uint64 // migration steps that found the new region full
	ResizingShards  uint64 // shards with a migration in flight right now
}

// Stats sums the counters across shards and stripes. Readers add a lookup
// before its hit, so every pair is loaded hits first: a hit landing between
// the two loads is then missed on both sides or counted as a lookup only,
// never as a hit without its lookup (which would wrap Misses).
func (t *Table) Stats() TableStats {
	var s TableStats
	s.BadLenLookups = t.badLen.Load()
	for i := range t.stripes {
		st := &t.stripes[i]
		s.Hits += st.hits.Load()
		s.BatchKeys += st.keys.Load()
		s.BatchCalls += st.groups.Load()
	}
	s.Lookups = s.BatchKeys
	for _, sh := range t.shards {
		s.Hits += sh.rd.hits.Load()
		s.Lookups += sh.rd.lookups.Load()
		s.Retries += sh.rd.retries.Load()
		s.LockFallbacks += sh.rd.fallbacks.Load()
		s.Inserts += sh.c.inserts.Load()
		s.InsertExists += sh.c.insertExists.Load()
		s.InsertFull += sh.c.insertFull.Load()
		s.Updates += sh.c.updates.Load()
		s.Deletes += sh.c.deletes.Load()
		s.Displacements += sh.c.displacements.Load()
		s.Grows += sh.c.grows.Load()
		s.ResizeSteps += sh.c.resizeSteps.Load()
		s.MigratedBuckets += sh.c.migratedBuckets.Load()
		s.MigratedKeys += sh.c.migratedKeys.Load()
		s.ResizeStalls += sh.c.resizeStalls.Load()
		if sh.regions.Load().old != nil {
			s.ResizingShards++
		}
	}
	s.Misses = s.Lookups - s.Hits
	return s
}

// ResizePauses returns a merged copy of the per-shard migration-step pause
// histograms (ns per bounded step).
func (t *Table) ResizePauses() *stats.Histogram {
	h, _ := t.resizePauses()
	return h
}

// resizePauses is ResizePauses plus the longest grow start any shard has
// taken, in ns: the new region's allocation under mu, which the step
// histogram does not time. Taking each shard's writer lock briefly is what
// makes the merge safe against an in-flight step or grow start.
func (t *Table) resizePauses() (*stats.Histogram, uint64) {
	h := stats.NewHistogramRes(stats.HighResSubBits)
	var growStart uint64
	for _, sh := range t.shards {
		sh.mu.Lock()
		h.Merge(sh.pauseHist)
		growStart = max(growStart, sh.growStartMax)
		sh.mu.Unlock()
	}
	return h, growStart
}

// storageBytes is what the table's storage occupies: bucket entries,
// allocated slot pages, page tables and recycled-slot lists, over every
// shard's current and old region. Like ResizePauses it takes each shard's
// writer lock, the lock under which pages and lists change.
func (t *Table) storageBytes() uint64 {
	var n uint64
	for _, sh := range t.shards {
		sh.mu.Lock()
		rp := sh.regions.Load()
		for _, r := range [2]*region{rp.old, rp.cur} {
			if r != nil {
				n += r.bytes()
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// bytes is storageBytes for one region. Caller must hold the shard's mu.
func (r *region) bytes() uint64 {
	const word = uint64(unsafe.Sizeof(atomic.Uint64{}))
	n := uint64(len(r.entries))*uint64(unsafe.Sizeof(r.entries[0])) +
		uint64(len(r.pages))*uint64(unsafe.Sizeof(r.pages[0])) +
		uint64(cap(r.free))*uint64(unsafe.Sizeof(uint32(0)))
	for _, page := range r.pages {
		n += uint64(len(page)) * word
	}
	return n
}

// CollectInto publishes the table's counters into a snapshot under the
// flowserve.* names, following the repo-wide CollectInto convention. The
// resize pause histogram is published both as a snapshot histogram
// (flowserve.resize.pause_ns) and as flattened quantile gauges, which is
// what crosses the flowwire STATS frame (counters-only JSON). The *_max_ns
// gauges are this table's maxima: Snapshot.Merge adds counters, so a cluster
// rollup of several nodes carries the sum of their maxima, an upper bound on
// the longest pause rather than that pause.
func (t *Table) CollectInto(snap *stats.Snapshot) {
	s := t.Stats()
	snap.Add("flowserve.shards", uint64(len(t.shards)))
	snap.Add("flowserve.size", t.Size())
	snap.Add("flowserve.capacity", t.Capacity())
	snap.Add("flowserve.bytes", t.storageBytes())
	snap.Add("flowserve.lookups", s.Lookups)
	snap.Add("flowserve.hits", s.Hits)
	snap.Add("flowserve.misses", s.Misses)
	snap.Add("flowserve.lookup.badlen", s.BadLenLookups)
	snap.Add("flowserve.lookup.retries", s.Retries)
	snap.Add("flowserve.lookup.lock_fallbacks", s.LockFallbacks)
	snap.Add("flowserve.inserts", s.Inserts)
	snap.Add("flowserve.insert.exists", s.InsertExists)
	snap.Add("flowserve.insert.full", s.InsertFull)
	snap.Add("flowserve.updates", s.Updates)
	snap.Add("flowserve.deletes", s.Deletes)
	snap.Add("flowserve.displacements", s.Displacements)
	snap.Add("flowserve.batch.calls", s.BatchCalls)
	snap.Add("flowserve.batch.keys", s.BatchKeys)
	snap.Add("flowserve.grows", s.Grows)
	snap.Add("flowserve.resize.steps", s.ResizeSteps)
	snap.Add("flowserve.resize.migrated_buckets", s.MigratedBuckets)
	snap.Add("flowserve.resize.migrated_keys", s.MigratedKeys)
	snap.Add("flowserve.resize.stalls", s.ResizeStalls)
	snap.Add("flowserve.resize.active", s.ResizingShards)
	pauses, growStart := t.resizePauses()
	snap.Add("flowserve.resize.pause_p50_ns", pauses.Quantile(0.50))
	snap.Add("flowserve.resize.pause_p99_ns", pauses.Quantile(0.99))
	snap.Add("flowserve.resize.pause_max_ns", pauses.Quantile(1.0))
	snap.Add("flowserve.resize.grow_start_max_ns", growStart)
	snap.MergeHist("flowserve.resize.pause_ns", pauses)
}
