package halo

import (
	"halo/internal/cuckoo"
	"halo/internal/mem"
)

// TableMeta is the accelerator's parsed view of a table's metadata line —
// exactly the fields the hardware needs to walk buckets without software
// help.
type TableMeta struct {
	Base        mem.Addr
	KeyLen      int
	BucketCount uint64
	BucketBase  mem.Addr
	KVBase      mem.Addr
	KVSlotSize  uint64
	SFH         bool
}

// parseMeta decodes a metadata line from simulated memory. ok is false when
// the magic does not match (the accelerator then raises a fault to software;
// in this model the query simply reports not-found with Fault set).
func parseMeta(space *mem.Memory, base mem.Addr) (TableMeta, bool) {
	if space.Load32(base) != cuckoo.Magic {
		return TableMeta{}, false
	}
	flags := space.Load32(base + 40)
	return TableMeta{
		Base:        base,
		KeyLen:      int(space.Load32(base + 4)),
		BucketCount: space.Load64(base + 8),
		BucketBase:  mem.Addr(space.Load64(base + 16)),
		KVBase:      mem.Addr(space.Load64(base + 24)),
		KVSlotSize:  space.Load64(base + 32),
		SFH:         flags&cuckoo.FlagSFH != 0,
	}, true
}

// MetadataCache holds recently used tables' metadata inside one accelerator
// (paper §4.3: 10 tables, 640 B). It participates in coherence through the
// hierarchy's accelerator core-valid bit: writes to or evictions of a cached
// metadata line invalidate the entry.
type MetadataCache struct {
	capacity int
	entries  map[mem.Addr]*metaEntry
	tick     uint64

	hits   uint64
	misses uint64
}

type metaEntry struct {
	meta TableMeta
	lru  uint64
}

// NewMetadataCache builds a cache holding up to capacity tables.
func NewMetadataCache(capacity int) *MetadataCache {
	if capacity <= 0 {
		panic("halo: metadata cache needs positive capacity")
	}
	return &MetadataCache{capacity: capacity, entries: make(map[mem.Addr]*metaEntry)}
}

// Get returns the cached metadata for a table base address.
func (c *MetadataCache) Get(base mem.Addr) (TableMeta, bool) {
	if e, ok := c.entries[base]; ok {
		c.tick++
		e.lru = c.tick
		c.hits++
		return e.meta, true
	}
	c.misses++
	return TableMeta{}, false
}

// Put inserts metadata, evicting the least recently used entry when full.
func (c *MetadataCache) Put(meta TableMeta) {
	if e, ok := c.entries[meta.Base]; ok {
		c.tick++
		*e = metaEntry{meta: meta, lru: c.tick}
		return
	}
	if len(c.entries) >= c.capacity {
		var victim mem.Addr
		var oldest uint64 = ^uint64(0)
		for base, e := range c.entries {
			if e.lru < oldest {
				oldest = e.lru
				victim = base
			}
		}
		delete(c.entries, victim)
	}
	c.tick++
	c.entries[meta.Base] = &metaEntry{meta: meta, lru: c.tick}
}

// Invalidate drops the entry whose metadata line is lineAddr (snoop from the
// CHA when a core writes the line or the LLC evicts it).
func (c *MetadataCache) Invalidate(lineAddr mem.Addr) {
	delete(c.entries, lineAddr)
}

// Len returns the number of cached tables.
func (c *MetadataCache) Len() int { return len(c.entries) }

// HitRate returns the fraction of Get calls that hit.
func (c *MetadataCache) HitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}
