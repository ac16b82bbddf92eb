package flowserve

import (
	"sync/atomic"
	"unsafe"

	"halo/internal/stats"
)

// TableStats aggregates the per-shard operation counters and the read path's
// stripes. Reader-side counters (Lookups, Hits, Retries, LockFallbacks,
// BatchCalls) are updated with atomics on the serving path, so a snapshot
// taken under load is a consistent-enough monotonic view — Hits never
// exceeds Lookups in it — and exact when quiescent.
type TableStats struct {
	Lookups       uint64 // every lookup is a batch's key: also flowserve.batch.keys
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
		s.Lookups += st.keys.Load()
		s.BatchCalls += st.groups.Load()
		s.Retries += st.retries.Load()
		s.LockFallbacks += st.fallbacks.Load()
	}
	for _, sh := range t.shards {
		s.Inserts += sh.c.inserts.Load()
		s.InsertExists += sh.c.insertExists.Load()
		s.InsertFull += sh.c.insertFull.Load()
		s.Updates += sh.c.updates.Load()
		s.Deletes += sh.c.deletes.Load()
		s.Displacements += sh.c.displacements.Load()
	}
	s.Misses = s.Lookups - s.Hits
	return s
}

// storageBytes is what the table's storage occupies: bucket entries,
// allocated slot pages, page tables and recycled-slot lists, over every
// shard. It takes each shard's writer lock, the lock under which
// pages and lists change.
func (t *Table) storageBytes() uint64 {
	var n uint64
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += sh.bytes()
		sh.mu.Unlock()
	}
	return n
}

// bytes is storageBytes for one shard. Caller must hold its mu.
func (sh *shard) bytes() uint64 {
	const word = uint64(unsafe.Sizeof(atomic.Uint64{}))
	n := uint64(len(sh.entries))*uint64(unsafe.Sizeof(sh.entries[0])) +
		uint64(len(sh.pages))*uint64(unsafe.Sizeof(sh.pages[0])) +
		uint64(cap(sh.free))*uint64(unsafe.Sizeof(uint32(0)))
	for _, page := range sh.pages {
		n += uint64(len(page)) * word
	}
	return n
}

// CollectInto publishes the table's counters into a snapshot under the
// flowserve.* names, following the repo-wide CollectInto convention.
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
	snap.Add("flowserve.batch.keys", s.Lookups)
}
