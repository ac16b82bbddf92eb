package halo

import (
	"sort"

	"halo/internal/cache"
	"halo/internal/cuckoo"
	"halo/internal/hashfn"
	"halo/internal/mem"
	"halo/internal/sim"
	"halo/internal/stats"
)

// AccelConfig parametrises one per-slice accelerator (paper §4.7).
type AccelConfig struct {
	// ScoreboardDepth bounds on-the-fly queries (paper: 10).
	ScoreboardDepth int
	// MetaCacheTables is the metadata-cache capacity (paper: 10 tables).
	MetaCacheTables int
	// HashLatency is the fully pipelined hash unit's depth.
	HashLatency sim.Cycle
	// CompareLatency covers the parallel signature comparators per bucket
	// and the key comparator per candidate.
	CompareLatency sim.Cycle
	// LockEnabled engages the hardware lock bit around bucket walks.
	LockEnabled bool
	// MetaCacheOff disables the metadata cache entirely (ablation): every
	// query re-fetches the metadata line through the LLC.
	MetaCacheOff bool
}

// DefaultAccelConfig matches the paper's configuration.
func DefaultAccelConfig() AccelConfig {
	return AccelConfig{
		ScoreboardDepth: 10,
		MetaCacheTables: 10,
		HashLatency:     3,
		CompareLatency:  1,
		LockEnabled:     true,
	}
}

// AccelStats counts one accelerator's activity.
type AccelStats struct {
	Queries     uint64
	Hits        uint64
	Misses      uint64
	Faults      uint64 // queries against invalid table metadata
	MetaHits    uint64
	MetaMisses  uint64
	DataAccess  uint64 // LLC/DRAM line accesses issued
	BusyCycles  uint64 // cycles of scoreboard-full admission delay imposed
	QueueCycles uint64 // total cycles queries waited for admission
}

// CollectInto adds the accelerator counters to a snapshot under the
// accel.* names; calling it for several accelerators accumulates them.
func (s AccelStats) CollectInto(snap *stats.Snapshot) {
	snap.Add("accel.queries", s.Queries)
	snap.Add("accel.hits", s.Hits)
	snap.Add("accel.misses", s.Misses)
	snap.Add("accel.faults", s.Faults)
	snap.Add("accel.meta.hits", s.MetaHits)
	snap.Add("accel.meta.misses", s.MetaMisses)
	snap.Add("accel.data.accesses", s.DataAccess)
	snap.Add("accel.busy_cycles", s.BusyCycles)
	snap.Add("accel.queue_cycles", s.QueueCycles)
}

// Query is one lookup handed to an accelerator by the distributor.
type Query struct {
	Core        int
	TableAddr   mem.Addr
	KeyAddr     mem.Addr
	ResultAddr  mem.Addr // non-blocking only
	NonBlocking bool
}

// QueryResult reports a completed lookup.
type QueryResult struct {
	Value  uint64
	Found  bool
	Fault  bool // table metadata invalid
	Issued sim.Cycle
	Done   sim.Cycle
	Slice  int
}

// Accelerator is the HALO engine attached to one CHA (paper Fig. 6): a
// scoreboard of on-the-fly queries, a pipelined hash unit, signature/key
// comparators and a metadata cache, issuing data accesses directly into the
// LLC slice network.
type Accelerator struct {
	slice    int
	cfg      AccelConfig
	hier     *cache.Hierarchy
	space    *mem.Memory
	meta     *MetadataCache
	hashUnit *sim.CalendarResource
	flowReg  *FlowRegister

	// outstanding holds completion cycles of admitted queries, ascending.
	outstanding []sim.Cycle

	// txn is the scratch of the query in progress (see queryTxn).
	txn queryTxn

	stats AccelStats
}

// maxKeyLen is the longest key a query carries — the cuckoo package's
// key-length ceiling. Table metadata and walk queries asking for more fault.
const maxKeyLen = 64

// queryTxn carries one query's mutable state through the walk's stages: the
// fetched key bytes, the key-comparison buffer, and the set of lines the
// hardware lock covers. Each Accelerator owns one, reused by every query,
// so the lookup path allocates nothing. One is enough: nothing a query calls
// re-enters the accelerator (LockLine reaches only AccelAccess and the
// metadata-cache invalidation). A stack value would re-zero all 280 bytes
// on every query.
type queryTxn struct {
	key    [maxKeyLen]byte
	cmp    [maxKeyLen]byte
	locked [2 + 2*cuckoo.EntriesPerBucket]mem.Addr // ≤2 buckets + ≤8 candidates each
	nLock  int
}

// NewAccelerator builds the accelerator for a slice.
func NewAccelerator(slice int, cfg AccelConfig, hier *cache.Hierarchy, space *mem.Memory, flowRegBits uint) *Accelerator {
	return &Accelerator{
		slice:    slice,
		cfg:      cfg,
		hier:     hier,
		space:    space,
		meta:     NewMetadataCache(cfg.MetaCacheTables),
		hashUnit: sim.NewCalendarResource(),
		flowReg:  NewFlowRegister(flowRegBits),
	}
}

// Slice returns the accelerator's LLC slice number.
func (a *Accelerator) Slice() int { return a.slice }

// Stats returns a copy of the counters.
func (a *Accelerator) Stats() AccelStats { return a.stats }

// FlowRegister exposes the per-accelerator register for the hybrid
// controller's periodic scan.
func (a *Accelerator) FlowRegister() *FlowRegister { return a.flowReg }

// MetadataCache exposes the metadata cache (for coherence invalidations and
// tests).
func (a *Accelerator) MetadataCache() *MetadataCache { return a.meta }

// OutstandingAt reports how many admitted queries are still in flight at
// cycle `at` — the scoreboard occupancy the distributor's busy bit reflects.
func (a *Accelerator) OutstandingAt(at sim.Cycle) int {
	n := 0
	for _, c := range a.outstanding {
		if c > at {
			n++
		}
	}
	return n
}

// admit applies scoreboard backpressure: a query arriving while
// ScoreboardDepth queries are in flight waits for the oldest to retire.
// Retired entries are dropped by shifting in place so the slice keeps its
// capacity (a resliced head would force recordCompletion to regrow forever).
func (a *Accelerator) admit(at sim.Cycle) sim.Cycle {
	i := 0
	for i < len(a.outstanding) && a.outstanding[i] <= at {
		i++
	}
	start := at
	for len(a.outstanding)-i >= a.cfg.ScoreboardDepth {
		if a.outstanding[i] > start {
			a.stats.QueueCycles += uint64(a.outstanding[i] - start)
			start = a.outstanding[i]
		}
		i++
	}
	if i > 0 {
		a.outstanding = a.outstanding[:copy(a.outstanding, a.outstanding[i:])]
	}
	return start
}

func (a *Accelerator) recordCompletion(done sim.Cycle) {
	i := sort.Search(len(a.outstanding), func(i int) bool { return a.outstanding[i] > done })
	a.outstanding = append(a.outstanding, 0)
	copy(a.outstanding[i+1:], a.outstanding[i:])
	a.outstanding[i] = done
}

func (a *Accelerator) access(at sim.Cycle, addr mem.Addr, write bool) cache.AccessResult {
	a.stats.DataAccess++
	return a.hier.AccelAccess(at, a.slice, addr, write)
}

// Process executes one query arriving at cycle `at` and returns its result.
// The walk follows paper §4.3's five-step procedure: fetch metadata, fetch
// the key, hash, probe bucket(s) with signature comparison, fetch and verify
// the key-value pair.
func (a *Accelerator) Process(at sim.Cycle, q Query) QueryResult {
	a.stats.Queries++
	tx := &a.txn
	tx.nLock = 0
	t := a.admit(at)
	issued := t

	// Step 0: table metadata, ideally from the metadata cache.
	var meta TableMeta
	ok := false
	if !a.cfg.MetaCacheOff {
		meta, ok = a.meta.Get(q.TableAddr)
	}
	if ok {
		a.stats.MetaHits++
		t++ // one-cycle SRAM read
	} else {
		a.stats.MetaMisses++
		res := a.access(t, q.TableAddr, false)
		t = res.Done
		meta, ok = parseMeta(a.space, q.TableAddr)
		if !ok {
			a.stats.Faults++
			r := QueryResult{Fault: true, Issued: issued, Done: t, Slice: a.slice}
			a.finish(q, r)
			return r
		}
		if !a.cfg.MetaCacheOff {
			a.meta.Put(meta)
			a.hier.MarkAccelValid(q.TableAddr)
		}
	}

	// Step 1: fetch the key (a second access if it straddles a line).
	res := a.access(t, q.KeyAddr, false)
	t = res.Done
	if mem.LineAddr(q.KeyAddr) != mem.LineAddr(q.KeyAddr+mem.Addr(meta.KeyLen)-1) {
		res = a.access(t, q.KeyAddr+mem.Addr(meta.KeyLen)-1, false)
		t = res.Done
	}
	key := tx.key[:meta.KeyLen]
	a.space.ReadAt(q.KeyAddr, key)

	// Step 2: hash (pipelined unit: occupied 1 cycle, latency HashLatency).
	hs := a.hashUnit.Claim(t, 1)
	t = hs + a.cfg.HashLatency
	h := hashfn.Hash(hashfn.SeedPrimary, key)
	sig := hashfn.Signature(h)
	b1 := h & (meta.BucketCount - 1)
	b2 := hashfn.AltBucket(b1, sig, meta.BucketCount)
	sfh := meta.Flags&cuckoo.FlagSFH != 0
	if sfh {
		b2 = b1
	}
	a.flowReg.Observe(h)

	// Steps 3-4: probe buckets; locked for the remainder of the query.
	lockFrom := t
	value, found := uint64(0), false
	buckets := [2]uint64{b1, b2}
	n := 2
	if sfh {
		n = 1
	}
	for bi := 0; bi < n && !found; bi++ {
		bAddr := meta.BucketBase + mem.Addr(buckets[bi]*mem.LineSize)
		if a.cfg.LockEnabled {
			tx.lock(bAddr)
		}
		res = a.access(t, bAddr, false)
		t = res.Done + a.cfg.CompareLatency // all 8 signatures compared in parallel

		for e := 0; e < cuckoo.EntriesPerBucket; e++ {
			ea := bAddr + mem.Addr(e*8)
			s := a.space.Load16(ea)
			if s != sig {
				continue
			}
			idx := a.space.Load32(ea + 4)
			kvAddr := meta.KVBase + mem.Addr(uint64(idx)*meta.KVSlotSize)
			if a.cfg.LockEnabled {
				tx.lock(kvAddr)
			}
			res = a.access(t, kvAddr, false)
			t = res.Done + a.cfg.CompareLatency
			if a.keyEqual(tx, meta, idx, key) {
				keyAligned := (mem.Addr(meta.KeyLen) + 7) &^ 7
				value = a.space.Load64(kvAddr + keyAligned)
				found = true
				break
			}
		}
	}

	// Step 5: deliver the result.
	if q.NonBlocking {
		res = a.access(t, q.ResultAddr, true)
		t = res.Done
		a.space.Store64(q.ResultAddr, EncodeResult(value, found))
	}

	// Engage the hardware locks for the window the walk occupied. With the
	// explicit-time model the release is known at lock time, so the lock
	// bit carries its free-at cycle directly (writers arriving earlier
	// observe a snoop miss and retry until then, paper §4.4).
	for _, la := range tx.locked[:tx.nLock] {
		a.hier.LockLine(lockFrom, a.slice, la, t)
	}

	if found {
		a.stats.Hits++
	} else {
		a.stats.Misses++
	}
	r := QueryResult{Value: value, Found: found, Issued: issued, Done: t, Slice: a.slice}
	a.finish(q, r)
	return r
}

func (a *Accelerator) finish(q Query, r QueryResult) {
	a.recordCompletion(r.Done)
}

// lock records a line address in the transaction's locked set. The set is
// bounded by construction (two buckets plus their candidate key-value lines).
func (tx *queryTxn) lock(addr mem.Addr) {
	tx.locked[tx.nLock] = addr
	tx.nLock++
}

func (a *Accelerator) keyEqual(tx *queryTxn, meta TableMeta, idx uint32, key []byte) bool {
	kvAddr := meta.KVBase + mem.Addr(uint64(idx)*meta.KVSlotSize)
	buf := tx.cmp[:len(key)]
	a.space.ReadAt(kvAddr, buf)
	for i := range buf {
		if buf[i] != key[i] {
			return false
		}
	}
	return true
}
