// Package flowserve is the concurrent flow-serving runtime: the repository's
// cuckoo flow-table algorithms rebuilt over native Go memory and real
// goroutines instead of simulated memory and modelled cycles. It is the
// first layer of the codebase whose concurrency `go test -race` can
// meaningfully exercise.
//
// The design transposes the paper's hardware mechanisms into software:
//
//   - The table is split into N shards selected by disjoint bits of the
//     primary hash (hashfn.ShardIndex), mirroring HALO's one-accelerator-
//     per-LLC-slice partitioning: independent shards never contend.
//   - Each shard guards its buckets with a seqlock — an atomic sequence
//     counter that is odd while a writer mutates and revalidated by readers
//     after every probe. This is the software analogue of the hardware lock
//     bit + SNAPSHOT_READ (paper §4.2): readers run without locks and a
//     conflicting write is detected, not prevented. Unlike the simulated
//     cuckoo table's bounded optimistic protocol, a reader here never
//     returns a torn probe: after maxOptimistic failed attempts it takes
//     the writer lock and probes exclusively.
//   - Mutations (insert, delete, displacement) take a per-shard mutex, so
//     each shard is single-writer — DPDK's rte_hash makes the same
//     single-writer/multi-reader assumption.
//   - Batch lookups group keys per shard and validate one sequence window
//     per group (see batch.go), the software analogue of issuing LOOKUP_NB
//     for a batch and polling the results with SNAPSHOT_READ.
//   - Capacity is fixed at New, as in rte_hash: a shard that cannot place a
//     key returns ErrTableFull. Capacity across nodes moves with
//     flowcluster's MoveRange (DESIGN.md §8, "Capacity").
//
// Storage per shard mirrors rte_hash (and the simulated cuckoo.Table): an
// array of 8-entry buckets holding packed {slot, signature} words, plus
// key-value slots of 8-byte words. Unlike rte_hash, an entry is 4 bytes, not
// 8: the slot index and a signature share one 32-bit word, the signature as
// wide as the shard's slot count leaves room for (16 bits down to 8), so a
// bucket is half a cache line. Nor are the slots allocated up front for full
// capacity: they live in fixed-size pages, each allocated the first time a
// slot in it is handed out, so a table holds memory for the flows it has
// held, not for the flows it could hold. Every word readers can observe is an
// atomic (atomic.Uint32 entries, atomic.Uint64 slot words), which makes the
// seqlock race-detector-clean and bounds tearing at word granularity (the
// seqlock then rules out cross-word mixes).
package flowserve

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"halo/internal/hashfn"
)

// EntriesPerBucket matches the simulated table and rte_hash: eight entries
// per bucket.
const EntriesPerBucket = hashfn.EntriesPerBucket

// maxOptimistic bounds seqlock probe attempts before a reader falls back to
// the writer lock. Retries are counted in flowserve.lookup.retries; the
// fallback in flowserve.lookup.lock_fallbacks.
const maxOptimistic = 8

// MaxKeyLen is the largest supported fixed key length in bytes.
const MaxKeyLen = 64

// maxKeyWords is MaxKeyLen in 8-byte words; probe scratch is sized to it.
const maxKeyWords = MaxKeyLen / 8

// maxPerShard is the exclusive upper bound on a shard's slot count: a bucket
// entry is slot<<sigBits | sig in 32 bits, so every slot index bit taken
// past 16 narrows the signature by one, and 24 index bits leave the
// narrowest signature the table accepts, 8 bits (one false signature match
// in 256 probed entries).
const maxPerShard = 1 << 24

// Common errors.
var (
	ErrTableFull = errors.New("flowserve: shard full (displacement path exhausted)")
	ErrKeyLen    = errors.New("flowserve: key length does not match table")
	ErrKeyExists = errors.New("flowserve: key already present")
)

// Config parametrises table creation.
type Config struct {
	// Shards is the number of independent sub-tables (power of two, 1..4096).
	Shards int
	// Entries is the total key-value capacity, split evenly across shards.
	// Shard assignment is by hash, so a shard can fill slightly before the
	// whole table does; size headroom (~10–20% at high shard counts) keeps
	// ErrTableFull away. A shard holds fewer than 1<<24 entries (its slot
	// index shares a 32-bit bucket entry with a signature of at least 8
	// bits), so Entries must be below Shards<<24. It is fixed for the
	// table's life.
	Entries uint64
	// KeyLen is the fixed key size in bytes (1..MaxKeyLen).
	KeyLen int
}

// Table is a sharded concurrent flow table. Lookups are safe from any number
// of goroutines concurrently with mutations; mutations themselves serialise
// per shard on an internal mutex.
type Table struct {
	shards []*shard
	keyLen int

	// badLen counts lookups whose key length does not match the table.
	// Such keys never hash to a shard, so charging any shard's counters
	// would skew that shard's hit ratio; they are a table-level miss class
	// of their own (flowserve.lookup.badlen).
	badLen atomic.Uint64

	// stripes hold the batched read path's counters; NewBatch deals them out
	// round-robin through nextStripe. Allocated apart from the Table so they
	// start on a line boundary.
	stripes    []readStripe
	nextStripe atomic.Uint32

	// batchPool recycles Batch scratch for Table.LookupMany callers that do
	// not pin their own Batch.
	batchPool sync.Pool
}

// New creates an empty table.
func New(cfg Config) (*Table, error) {
	if cfg.KeyLen <= 0 || cfg.KeyLen > MaxKeyLen {
		return nil, fmt.Errorf("flowserve: key length %d out of range 1..%d", cfg.KeyLen, MaxKeyLen)
	}
	if cfg.Shards <= 0 || cfg.Shards > 4096 || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("flowserve: shard count %d not a power of two in 1..4096", cfg.Shards)
	}
	if cfg.Entries == 0 {
		return nil, errors.New("flowserve: zero capacity")
	}
	perShard := (cfg.Entries + uint64(cfg.Shards) - 1) / uint64(cfg.Shards)
	if perShard >= maxPerShard {
		return nil, fmt.Errorf("flowserve: %d entries per shard, want < %d: a bucket entry holds a 24-bit slot index beside an 8-bit signature", perShard, maxPerShard)
	}
	t := &Table{
		shards:  make([]*shard, cfg.Shards),
		keyLen:  cfg.KeyLen,
		stripes: make([]readStripe, batchStripes),
	}
	for i := range t.shards {
		t.shards[i] = newShard(perShard, cfg.KeyLen)
	}
	t.batchPool = newBatchPool(t)
	return t, nil
}

// KeyLen returns the table's fixed key length.
func (t *Table) KeyLen() int { return t.keyLen }

// Shards returns the number of shards.
func (t *Table) Shards() int { return len(t.shards) }

// Capacity returns the total key-value capacity.
func (t *Table) Capacity() uint64 {
	var c uint64
	for _, sh := range t.shards {
		c += sh.capacity
	}
	return c
}

// Size returns the number of live entries (a racy sum under concurrent
// writes, exact when quiescent).
func (t *Table) Size() uint64 {
	var n uint64
	for _, sh := range t.shards {
		n += sh.size.Load()
	}
	return n
}

// route hashes a key and resolves the owning shard. Bucket indexes and the
// signature are derived from the primary hash by the shard, in its geometry,
// when it probes.
func (t *Table) route(key []byte, kw *[maxKeyWords]uint64) (sh *shard, h uint64) {
	keyToWords(key, kw)
	h = hashfn.Hash(hashfn.SeedPrimary, key)
	sh = t.shards[hashfn.ShardIndex(h, uint64(len(t.shards)))]
	return
}

// Lookup finds a key and returns its value. Safe for unbounded concurrency.
// A mismatched key length is a miss counted in the table-level badlen
// counter (it belongs to no shard).
func (t *Table) Lookup(key []byte) (value uint64, ok bool) {
	if len(key) != t.keyLen {
		t.badLen.Add(1)
		return 0, false
	}
	var kw [maxKeyWords]uint64
	sh, h := t.route(key, &kw)
	return sh.lookup(&kw, h)
}

// Insert adds a key-value pair. Inserting an existing key returns
// ErrKeyExists (use Update to change a value).
func (t *Table) Insert(key []byte, value uint64) error {
	if len(key) != t.keyLen {
		return ErrKeyLen
	}
	var kw [maxKeyWords]uint64
	sh, h := t.route(key, &kw)
	return sh.insert(&kw, h, value)
}

// Update changes the value of an existing key, reporting whether it was
// present.
func (t *Table) Update(key []byte, value uint64) bool {
	if len(key) != t.keyLen {
		return false
	}
	var kw [maxKeyWords]uint64
	sh, h := t.route(key, &kw)
	return sh.update(&kw, h, value)
}

// Delete removes a key, reporting whether it was present.
func (t *Table) Delete(key []byte) bool {
	if len(key) != t.keyLen {
		return false
	}
	var kw [maxKeyWords]uint64
	sh, h := t.route(key, &kw)
	return sh.delete(&kw, h)
}

// keyToWords packs a key into little-endian 8-byte words, zero-padding the
// tail — the in-memory key representation (word-wise atomic loads are what
// keep the read path race-free).
func keyToWords(key []byte, kw *[maxKeyWords]uint64) {
	w := 0
	for len(key) >= 8 {
		kw[w] = uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		key = key[8:]
		w++
	}
	if len(key) > 0 {
		var last uint64
		for i, b := range key {
			last |= uint64(b) << (8 * i)
		}
		kw[w] = last
	}
}

// wordsToKey unpacks keyToWords' representation back into bytes — a range
// walk filters resident keys on their primary hash, and hashes are computed
// over bytes.
func wordsToKey(kw *[maxKeyWords]uint64, keyLen int, out *[MaxKeyLen]byte) []byte {
	for w := 0; w*8 < keyLen; w++ {
		v := kw[w]
		base := w * 8
		for i := 0; i < 8 && base+i < keyLen; i++ {
			out[base+i] = byte(v >> (8 * i))
		}
	}
	return out[:keyLen]
}

// pageShift sets the slot page size: 1<<pageShift slots to a page. At the
// header-key width (20 bytes, four words a slot) a page is 32 KiB, the
// allocator's largest small size class.
const (
	pageShift = 10
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1
)

// cacheLine is the coherence granule the shard layout is built around.
const cacheLine = 64

// shard is one independent sub-table and its storage: an 8-entry-bucket
// cuckoo table whose reader-visible words are all atomics, guarded by a
// seqlock for readers and a mutex for writers. It is sized once, at New.
//
// The fields are laid out so that every 64-byte line has one kind of writer
// (DESIGN.md §8, "Who writes which cache line"; TestShardLayout and
// TestShardLinesDisjoint are the guards). A line a reader writes is never one
// a writer writes, so an Update — which opens no seqlock window — costs the
// reader nothing, and a reader's counters never take the mutex line away
// from the writer.
type shard struct {
	// Probe-read: everything a clean probe reads of the shard, plus the
	// seqlock. seq is the one word here a writer stores to, and only around
	// an insert or delete, after which readers must re-fetch it anyway;
	// sharing its line with the geometry keeps a clean probe at two shard
	// lines (this one and the reader-written one below).

	// entries holds the packed bucket entries, EntriesPerBucket to a bucket
	// and a power-of-two count of buckets: slot<<sigBits | signature, zero
	// when empty (signatures are never zero). A bucket is 32 bytes, and the
	// array is 64-byte aligned (TestEntriesLineAligned), so a bucket probe
	// reads one cache line.
	entries []atomic.Uint32

	// pages is the slot page table: page p holds slots p<<pageShift onward,
	// kvStride words each (the key's words, then one value word). Every page
	// holds pageSlots slots but the last, which is cut to capacity. A page is
	// nil until takeSlot first hands out one of its slots, and is never
	// replaced after.
	pages [][]atomic.Uint64

	// seq is the seqlock generation: odd while a writer is mutating. Readers
	// snapshot it before probing and revalidate after.
	seq atomic.Uint64

	// sigBits is the signature width: the low sigBits bits of an entry hold
	// the key's signature, the bits above them its slot index. newShard fixes
	// it at the widest that leaves room for every slot index below capacity,
	// at most 16, so a shard past 1<<16 slots loses a signature bit per
	// doubling of its capacity. sigMask is 1<<sigBits - 1.
	sigMask  uint32
	sigBits  uint8
	kvStride uint8 // the key's words + 1 value word: the table's one key width

	_ [cacheLine - 62]byte

	// Reader-written: single-key lookups count here; the batched path counts
	// its rare retries and fallbacks here and everything else in its stripe.
	rd readCounters

	_ [cacheLine - 32]byte

	// Writer-owned from here to the end of the struct: stored to only with
	// mu held. Readers take mu on the fallback path alone.
	mu   sync.Mutex // serialises writers; also the reader fallback path
	size atomic.Uint64
	c    shardCounters

	// The slot allocator: slots [0, next) of capacity have been handed out
	// at least once, and free holds those of them a delete has given back
	// since.
	capacity uint64
	next     uint64
	free     []uint32

	disp hashfn.Displacer // BFS displacement scratch

	_ [8]byte // rounds the struct up to whole lines (TestShardLayout)
}

// readCounters are the per-shard counters the read path writes. They are
// atomics because lookups run concurrently, and they sit on a line of their
// own: every reader of a shard shares that line, no writer ever takes it.
type readCounters struct {
	lookups   atomic.Uint64
	hits      atomic.Uint64 // added after lookups, loaded before: hits ≤ lookups in any snapshot
	retries   atomic.Uint64 // seqlock revalidation failures (re-probes)
	fallbacks atomic.Uint64 // optimistic attempts exhausted → locked probe
}

// shardCounters are the per-shard counters writers bump under mu (atomics
// only so that Stats can load them without taking it).
type shardCounters struct {
	inserts       atomic.Uint64
	insertExists  atomic.Uint64
	insertFull    atomic.Uint64
	updates       atomic.Uint64
	deletes       atomic.Uint64
	displacements atomic.Uint64
}

// batchStripes is how many counter stripes a table deals out to its batches.
// More than the cores a box gives a table's readers is wasted; fewer only
// means two batches share a line, which the atomics make safe.
const batchStripes = 8

// readStripe is one line of batched-lookup counters. Batch.LookupMany adds a
// whole call's worth in one go (groups, keys, hits — in that order), so a
// reader writes one stripe line per call rather than a shard line per group,
// and a collected Batch takes nothing with it. keys is both the stripe's
// share of flowserve.lookups and of flowserve.batch.keys.
type readStripe struct {
	groups atomic.Uint64 // per-shard groups served
	keys   atomic.Uint64
	hits   atomic.Uint64
	_      [cacheLine - 24]byte
}

// newShard sizes a shard for the requested entry count and key length: the
// bucket array (hashfn.BucketCount buckets) and an empty page table, no
// slots.
func newShard(entries uint64, keyLen int) *shard {
	sigBits := uint8(min(hashfn.SigBits, 32-bits.Len64(entries-1)))
	return &shard{
		entries:  make([]atomic.Uint32, hashfn.BucketCount(entries)*EntriesPerBucket),
		pages:    make([][]atomic.Uint64, (entries+pageMask)>>pageShift),
		sigMask:  1<<sigBits - 1,
		sigBits:  sigBits,
		kvStride: uint8((keyLen+7)/8 + 1),
		capacity: entries,
	}
}

// bucketCount is the number of buckets in entries, a power of two.
func (sh *shard) bucketCount() uint64 {
	return uint64(len(sh.entries)) / EntriesPerBucket
}

// full reports whether every slot of sh holds a key. Caller must hold mu.
func (sh *shard) full() bool {
	return len(sh.free) == 0 && sh.next == sh.capacity
}

// takeSlot is the shard's one slot allocator: it hands out a slot a delete
// recycled if there is one, else the next never-used slot, allocating that
// slot's page if it has none. Recycling first keeps next at the most keys sh
// has held at once; handing out never-used slots in order keeps a fill
// sequential, page after page. Caller must hold mu and have checked
// !sh.full().
func (sh *shard) takeSlot() uint32 {
	if n := len(sh.free); n > 0 {
		slot := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return slot
	}
	slot := uint32(sh.next)
	if p := slot >> pageShift; sh.pages[p] == nil {
		slots := min(pageSlots, sh.capacity-uint64(p)<<pageShift)
		sh.pages[p] = make([]atomic.Uint64, slots*uint64(sh.kvStride))
	}
	sh.next++
	return slot
}

// beginWrite/endWrite bracket every mutation of reader-visible words. The
// caller must hold mu.
func (sh *shard) beginWrite() { sh.seq.Add(1) } // even → odd
func (sh *shard) endWrite()   { sh.seq.Add(1) } // odd → even

// slotWords is the table's one slot address: slot's kvStride words, its key
// words then its value word.
//
// The page it indexes was allocated by a plain store under mu, which a
// reader does not hold. That is safe because a reader reaches a slot only
// through a bucket entry it loaded, and the entry was published after the
// page existed: placeLocked takes the slot (allocating its page), then
// writeKV fills it, then an atomic store publishes the entry; the reader's
// atomic load of that entry happens-after the store, so the page's
// allocation happens-before the reader's load of it. A page is never
// replaced, so no later store can race the load either.
func (sh *shard) slotWords(slot uint32) []atomic.Uint64 {
	stride := int(sh.kvStride)
	off := int(slot&pageMask) * stride
	return sh.pages[slot>>pageShift][off : off+stride]
}

// keyEqual compares slot's stored key words against kw. Word loads are
// atomic; consistency across words is the seqlock's job.
func (sh *shard) keyEqual(slot uint32, kw *[maxKeyWords]uint64) bool {
	words := sh.slotWords(slot)
	for i := range words[:len(words)-1] {
		if words[i].Load() != kw[i] {
			return false
		}
	}
	return true
}

// locate is the table's one bucket scan: it finds the entry holding the key
// by scanning the key's candidate bucket pair, and returns the entry index
// and slot that hold it. It may run concurrently with a writer: a reader
// trusts the result only once its readWindow is done.
func (sh *shard) locate(kw *[maxKeyWords]uint64, h uint64) (uint64, uint32, bool) {
	b1, b2, sig := hashfn.Buckets(h, sh.bucketCount(), sh.sigBits)
	for _, b := range [2]uint64{b1, b2} {
		base := b * EntriesPerBucket
		for e := uint64(0); e < EntriesPerBucket; e++ {
			ent := sh.entries[base+e].Load()
			if ent&sh.sigMask != uint32(sig) {
				continue
			}
			slot := ent >> sh.sigBits
			if sh.keyEqual(slot, kw) {
				return base + e, slot, true
			}
		}
	}
	return 0, 0, false
}

// valueWord is the value word of slot. A reader probes a key with locate
// and, on a hit, loads this word inside the same window.
func (sh *shard) valueWord(slot uint32) *atomic.Uint64 {
	words := sh.slotWords(slot)
	return &words[len(words)-1]
}

// readWindow is the seqlock read protocol, shared by the single-key and the
// batched path: open snapshots the sequence, done revalidates. A probe raced
// by a writer is discarded and retried; after maxOptimistic attempts open
// takes the writer lock, so — unlike the simulated table's give-up path — a
// torn result is never returned.
//
//	for w := (readWindow{sh: sh}); ; {
//		w.open()
//		... probe sh ...
//		if w.done() {
//			break
//		}
//	}
type readWindow struct {
	sh      *shard
	seq     uint64
	attempt int // == maxOptimistic once the window holds the writer lock
}

// open opens the next attempt.
func (w *readWindow) open() {
	sh := w.sh
	for ; w.attempt < maxOptimistic; w.attempt++ {
		if w.seq = sh.seq.Load(); w.seq&1 == 0 {
			return
		}
		// A writer is mid-mutation; yield rather than spin-read.
		sh.rd.retries.Add(1)
		runtime.Gosched()
	}
	// Writer storm: one exclusive probe settles it.
	sh.rd.fallbacks.Add(1)
	sh.mu.Lock()
}

// done reports whether the probe since open stands; when it does not,
// the caller probes again. The fast path is one comparison, small enough to
// inline into both read loops.
func (w *readWindow) done() bool {
	return w.sh.seq.Load() == w.seq || w.settle()
}

// settle is done's slow path, and a locked probe always takes it: the window
// falls back to the lock only after its last attempt saw an odd sequence or
// one that moved on, and under the lock the sequence is even and stands
// still, so it can equal neither.
func (w *readWindow) settle() bool {
	if w.attempt == maxOptimistic {
		w.sh.mu.Unlock()
		return true
	}
	w.sh.rd.retries.Add(1)
	w.attempt++
	return false
}

// lookup probes one key under a readWindow.
func (sh *shard) lookup(kw *[maxKeyWords]uint64, h uint64) (uint64, bool) {
	sh.rd.lookups.Add(1)
	var res Result
	for w := (readWindow{sh: sh}); ; {
		w.open()
		res = Result{}
		if _, slot, ok := sh.locate(kw, h); ok {
			res = Result{Value: sh.valueWord(slot).Load(), OK: true}
		}
		if w.done() {
			break
		}
	}
	if res.OK {
		sh.rd.hits.Add(1)
	}
	return res.Value, res.OK
}

// writeKV stores a slot's key words and value. The slot is free (no
// bucket entry points to it) and its page allocated (takeSlot ran first), so
// this runs outside the seqlock window; the entry store that publishes it
// orders after these writes.
func (sh *shard) writeKV(slot uint32, kw *[maxKeyWords]uint64, value uint64) {
	words := sh.slotWords(slot)
	nw := len(words) - 1
	for i := range words[:nw] {
		words[i].Store(kw[i])
	}
	words[nw].Store(value)
}

// placeLocked is the table's one placement: it puts an absent key into the
// shard by direct placement into a free candidate entry, else by a BFS
// displacement chain. Caller must hold mu and have checked that the key is
// absent. Returns false when the shard cannot take the key (no free slot or
// no displacement path).
func (sh *shard) placeLocked(kw *[maxKeyWords]uint64, h, value uint64) bool {
	if sh.full() {
		return false
	}
	b1, b2, sig := hashfn.Buckets(h, sh.bucketCount(), sh.sigBits)
	entIdx, direct := sh.freeEntry(b1, b2)
	var path []hashfn.Move
	if !direct {
		// BFS for a move chain: read-only, so outside the write window (the
		// mutex already excludes other writers).
		if path = sh.disp.Path(b1, b2, sh.bucketCount(), sh.sigs); path == nil {
			return false
		}
	}
	// Placement is now certain, so taking the slot (and perhaps its page)
	// cannot leak one.
	slot := sh.takeSlot()
	sh.writeKV(slot, kw, value)
	// Publishing one empty→live entry is atomic on its own, but the slot may
	// be recycled: a reader that captured the old entry before the slot was
	// freed could mix old and new key words into a phantom match. The
	// seqlock window forces such readers to re-probe.
	sh.beginWrite()
	if !direct {
		sh.applyCuckooPath(path)
		if entIdx, direct = sh.freeEntry(b1, b2); !direct {
			// The displacement chain freed a slot in b1 or b2 by construction.
			sh.endWrite()
			sh.free = append(sh.free, slot)
			panic("flowserve: displacement path freed no candidate entry")
		}
		sh.c.displacements.Add(uint64(len(path)))
	}
	sh.entries[entIdx].Store(slot<<sh.sigBits | uint32(sig))
	sh.endWrite()
	return true
}

func (sh *shard) insert(kw *[maxKeyWords]uint64, h, value uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, _, exists := sh.locate(kw, h); exists {
		sh.c.insertExists.Add(1)
		return ErrKeyExists
	}
	if !sh.placeLocked(kw, h, value) {
		sh.c.insertFull.Add(1)
		return ErrTableFull
	}
	sh.size.Add(1)
	sh.c.inserts.Add(1)
	return nil
}

// freeEntry returns the index of an empty entry in bucket b1 or b2.
func (sh *shard) freeEntry(b1, b2 uint64) (uint64, bool) {
	for _, b := range [2]uint64{b1, b2} {
		base := b * EntriesPerBucket
		for e := uint64(0); e < EntriesPerBucket; e++ {
			if sh.entries[base+e].Load() == 0 {
				return base + e, true
			}
		}
	}
	return 0, false
}

func (sh *shard) update(kw *[maxKeyWords]uint64, h, value uint64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, slot, found := sh.locate(kw, h)
	if !found {
		return false
	}
	// A single-word value store is atomic on its own: concurrent readers
	// see the old or the new value, both of which were live for this key,
	// so no seqlock window is needed.
	sh.valueWord(slot).Store(value)
	sh.c.updates.Add(1)
	return true
}

func (sh *shard) delete(kw *[maxKeyWords]uint64, h uint64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	entIdx, slot, found := sh.locate(kw, h)
	if !found {
		return false
	}
	sh.removeLocked(entIdx, slot)
	sh.c.deletes.Add(1)
	return true
}

// removeLocked clears entry entIdx and frees its slot. Clearing the
// entry is a single atomic store, but the freed slot can be recycled by a
// later insert; bumping the seqlock makes readers that captured this entry
// re-probe instead of reading recycled key words. Caller must hold mu.
func (sh *shard) removeLocked(entIdx uint64, slot uint32) {
	sh.beginWrite()
	sh.entries[entIdx].Store(0)
	sh.endWrite()
	sh.free = append(sh.free, slot)
	sh.size.Add(^uint64(0))
}

// residentKey rebuilds the keyLen-byte key held in slot into kw and kb and
// returns its bytes, its primary hash and its value: a range walk filters on
// the hash. Caller must hold mu.
func (sh *shard) residentKey(slot uint32, keyLen int, kw *[maxKeyWords]uint64, kb *[MaxKeyLen]byte) (key []byte, h, value uint64) {
	words := sh.slotWords(slot)
	nw := len(words) - 1
	for w := range words[:nw] {
		kw[w] = words[w].Load()
	}
	key = wordsToKey(kw, keyLen, kb)
	return key, hashfn.Hash(hashfn.SeedPrimary, key), words[nw].Load()
}

// sigs returns bucket b's signatures in entry order, for the displacement
// search. Caller must hold mu.
func (sh *shard) sigs(b uint64) (s [EntriesPerBucket]uint16) {
	for e := range s {
		s[e] = uint16(sh.entries[b*EntriesPerBucket+uint64(e)].Load() & sh.sigMask)
	}
	return s
}

// applyCuckooPath executes the moves leaf-first so no entry is ever
// unreachable. Caller must hold mu and have opened the seqlock window.
func (sh *shard) applyCuckooPath(path []hashfn.Move) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		src := n.Bucket*EntriesPerBucket + uint64(n.Entry)
		ent := sh.entries[src].Load()
		alt := hashfn.AltBucket(n.Bucket, uint16(ent&sh.sigMask), sh.bucketCount())
		altBase := alt * EntriesPerBucket
		for ae := uint64(0); ae < EntriesPerBucket; ae++ {
			if sh.entries[altBase+ae].Load() == 0 {
				sh.entries[altBase+ae].Store(ent)
				sh.entries[src].Store(0)
				break
			}
		}
	}
}
