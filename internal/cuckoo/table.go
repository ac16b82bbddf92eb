// Package cuckoo implements the bucketized cuckoo hash table that virtual
// switches use to store flow rules (paper §2.2, Fig. 2b), laid out in
// simulated physical memory so that the software lookup path and the HALO
// accelerators operate on the same bytes.
//
// The layout mirrors DPDK's rte_hash: a metadata block, an array of
// cache-line-sized buckets each holding eight {signature, key-value index}
// entries, and a key-value array. Insertion uses BFS cuckoo displacement;
// readers use optimistic locking against a table change counter.
package cuckoo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"halo/internal/hashfn"
	"halo/internal/mem"
	"halo/internal/stats"
)

// EntriesPerBucket is the bucket width; 8 entries of 8 bytes fill one 64 B
// cache line, DPDK's default.
const EntriesPerBucket = 8

const entryBytes = 8

// Metadata field offsets within the table's first cache line. The HALO
// accelerator's metadata cache reads this line (paper §4.3), so the layout
// is part of the hardware/software contract.
const (
	metaMagic       = 0  // uint32
	metaKeyLen      = 4  // uint32
	metaBucketCount = 8  // uint64
	metaBucketBase  = 16 // uint64
	metaKVBase      = 24 // uint64
	metaKVSlotSize  = 32 // uint64
	metaFlags       = 40 // uint32
	metaVersion     = 44 // uint32: optimistic-lock change counter
	metaCapacity    = 48 // uint64
	// MetaBytes is the size of the metadata block (one line).
	MetaBytes = mem.LineSize
)

// maxKeyLen is the longest key a table holds.
const maxKeyLen = 64

// Magic identifies a HALO-compatible table in simulated memory.
const Magic = 0x484c4f54 // "HLOT"

// Flags stored in the metadata block.
const (
	// FlagSFH marks a single-function hash table: entries have no
	// alternative bucket (the paper's baseline in Fig. 4).
	FlagSFH uint32 = 1 << 0
)

// Common errors.
var (
	ErrTableFull   = errors.New("cuckoo: table full (displacement path exhausted)")
	ErrKeyLen      = errors.New("cuckoo: key length does not match table")
	ErrKeyExists   = errors.New("cuckoo: key already present")
	ErrNotHaloible = errors.New("cuckoo: memory does not hold a valid table")
)

// Config parametrises table creation.
type Config struct {
	// Entries is the capacity in key-value slots; bucket count is derived
	// as the next power of two of Entries/EntriesPerBucket (min 2).
	Entries uint64
	// KeyLen is the fixed key size in bytes (network headers: 4..64).
	KeyLen int
	// SFH selects the single-function-hash baseline layout.
	SFH bool
}

// Table is a handle over a table resident in simulated memory. The handle
// caches immutable metadata; mutable state (the change counter, bucket and
// key-value contents) lives only in memory.
type Table struct {
	space *mem.Memory
	base  mem.Addr

	keyLen      int
	bucketCount uint64
	bucketBase  mem.Addr
	kvBase      mem.Addr
	kvSlotSize  uint64
	capacity    uint64
	flags       uint32

	free []uint32 // free key-value slot indexes (host-side allocator state)
	size uint64

	stats TableStats

	// probeHook, when non-nil, runs after each timed probe and before the
	// optimistic-lock re-read; tests install it to emulate a concurrent
	// writer moving the version counter mid-lookup.
	probeHook func()

	// Scratch state reused across operations so the steady-state lookup and
	// insert paths allocate nothing. Table handles were never safe for
	// concurrent use (the stats counters race); the scratch buffers lean on
	// the same single-owner contract.
	cmpBuf     [maxKeyLen]byte // key-compare buffer (KeyLen is validated ≤ maxKeyLen)
	bfsNodes   []pathNode
	bfsPath    []pathNode
	bfsQueue   []frontierItem
	bfsVisited map[uint64]bool
}

// TableStats counts operations against one table handle, functional and
// timed paths combined. Lookups include the duplicate-check probe every
// insert performs; Displacements counts individual cuckoo moves.
type TableStats struct {
	Lookups       uint64
	Hits          uint64
	Inserts       uint64
	Deletes       uint64
	Updates       uint64
	Displacements uint64
	// Retries counts timed-lookup re-probes forced by a moving version
	// counter (the optimistic-lock protocol observed a writer and probed
	// again); RetryExhausted counts lookups that hit the retry bound and
	// returned the last probe's result anyway. See
	// LookupOptions.OptimisticLock for the give-up semantics.
	Retries        uint64
	RetryExhausted uint64
}

// Stats returns a copy of the operation counters.
func (t *Table) Stats() TableStats { return t.stats }

// ResetStats zeroes the operation counters.
func (t *Table) ResetStats() { t.stats = TableStats{} }

// CollectInto adds the table's counters to a snapshot under the cuckoo.*
// names; calling it for several tables accumulates them.
func (s TableStats) CollectInto(snap *stats.Snapshot) {
	snap.Add("cuckoo.lookups", s.Lookups)
	snap.Add("cuckoo.hits", s.Hits)
	snap.Add("cuckoo.inserts", s.Inserts)
	snap.Add("cuckoo.deletes", s.Deletes)
	snap.Add("cuckoo.updates", s.Updates)
	snap.Add("cuckoo.displacements", s.Displacements)
	snap.Add("cuckoo.lookup.retries", s.Retries)
	snap.Add("cuckoo.lookup.retry_exhausted", s.RetryExhausted)
}

// kvSlotSize returns the aligned key-value slot size for a key length:
// key bytes rounded up to 8, plus an 8-byte value, rounded to 16.
func slotSize(keyLen int) uint64 {
	keyAligned := (uint64(keyLen) + 7) &^ 7
	s := keyAligned + 8
	return (s + 15) &^ 15
}

// Footprint returns the total simulated-memory bytes a table with the given
// config occupies (metadata + buckets + key-value array).
func Footprint(cfg Config) uint64 {
	bc := bucketCountFor(cfg)
	return MetaBytes + bc*mem.LineSize + cfg.Entries*slotSize(cfg.KeyLen)
}

func bucketCountFor(cfg Config) uint64 {
	want := cfg.Entries / EntriesPerBucket
	if cfg.SFH {
		// SFH tables achieve only ~20% utilisation (paper §3.3): allocate
		// 5x the buckets so the same flow count still installs.
		want = cfg.Entries * 5 / EntriesPerBucket
	}
	bc := uint64(2)
	for bc < want {
		bc <<= 1
	}
	return bc
}

// Create lays a new empty table out in memory using the allocator and
// returns its handle.
func Create(space *mem.Memory, alloc *mem.Allocator, cfg Config) (*Table, error) {
	if cfg.KeyLen <= 0 || cfg.KeyLen > maxKeyLen {
		return nil, fmt.Errorf("cuckoo: key length %d out of range 1..%d", cfg.KeyLen, maxKeyLen)
	}
	if cfg.Entries == 0 {
		return nil, errors.New("cuckoo: zero capacity")
	}
	bc := bucketCountFor(cfg)
	base := alloc.Alloc(MetaBytes, mem.LineSize)
	bucketBase := alloc.Alloc(bc*mem.LineSize, mem.LineSize)
	kvSlot := slotSize(cfg.KeyLen)
	kvBase := alloc.Alloc(cfg.Entries*kvSlot, mem.LineSize)

	var flags uint32
	if cfg.SFH {
		flags |= FlagSFH
	}
	space.Store32(base+metaMagic, Magic)
	space.Store32(base+metaKeyLen, uint32(cfg.KeyLen))
	space.Store64(base+metaBucketCount, bc)
	space.Store64(base+metaBucketBase, uint64(bucketBase))
	space.Store64(base+metaKVBase, uint64(kvBase))
	space.Store64(base+metaKVSlotSize, kvSlot)
	space.Store32(base+metaFlags, flags)
	space.Store32(base+metaVersion, 0)
	space.Store64(base+metaCapacity, cfg.Entries)

	// The bucket array needs no explicit zeroing: the allocator never
	// reuses regions and fresh simulated memory reads as zero, which is
	// exactly the "empty entry" encoding (signature 0).

	t := &Table{
		space:       space,
		base:        base,
		keyLen:      cfg.KeyLen,
		bucketCount: bc,
		bucketBase:  bucketBase,
		kvBase:      kvBase,
		kvSlotSize:  kvSlot,
		capacity:    cfg.Entries,
		flags:       flags,
	}
	t.free = make([]uint32, 0, cfg.Entries)
	for i := int64(cfg.Entries) - 1; i >= 0; i-- {
		t.free = append(t.free, uint32(i))
	}
	return t, nil
}

// Meta is a table's metadata block decoded: the geometry Create lays out
// in the table's first line, which the HALO accelerator reads to walk
// buckets without software help.
type Meta struct {
	KeyLen      int
	BucketCount uint64
	BucketBase  mem.Addr
	KVBase      mem.Addr
	KVSlotSize  uint64
	Capacity    uint64
	Flags       uint32
}

// ReadMeta decodes the metadata block at base. The block comes from
// simulated memory, which anything may have written, so it is validated
// against what Create would have laid out: the magic, a key length in
// 1..64, a capacity that 32-bit slot indexes cover, the bucket count and
// slot size that capacity and key length imply, and line-aligned arrays.
// A block that fails any of these is ErrNotHaloible.
func ReadMeta(space *mem.Memory, base mem.Addr) (Meta, error) {
	if space.Load32(base+metaMagic) != Magic {
		return Meta{}, ErrNotHaloible
	}
	m := Meta{
		KeyLen:      int(space.Load32(base + metaKeyLen)),
		BucketCount: space.Load64(base + metaBucketCount),
		BucketBase:  mem.Addr(space.Load64(base + metaBucketBase)),
		KVBase:      mem.Addr(space.Load64(base + metaKVBase)),
		KVSlotSize:  space.Load64(base + metaKVSlotSize),
		Capacity:    space.Load64(base + metaCapacity),
		Flags:       space.Load32(base + metaFlags),
	}
	switch {
	case m.KeyLen < 1 || m.KeyLen > maxKeyLen,
		m.Capacity == 0 || m.Capacity > 1<<32, // slot indexes are 32-bit
		m.BucketCount != bucketCountFor(Config{Entries: m.Capacity, SFH: m.Flags&FlagSFH != 0}),
		m.KVSlotSize != slotSize(m.KeyLen),
		m.BucketBase%mem.LineSize != 0 || m.KVBase%mem.LineSize != 0:
		return Meta{}, ErrNotHaloible
	}
	return m, nil
}

// Attach opens an existing table at base (e.g. from another handle's
// address). The metadata block must pass ReadMeta; a bucket entry pointing
// outside the key-value array or at a slot another entry already owns is
// ErrNotHaloible too. Free-slot state is reconstructed by scanning the
// buckets.
func Attach(space *mem.Memory, base mem.Addr) (*Table, error) {
	m, err := ReadMeta(space, base)
	if err != nil {
		return nil, err
	}
	t := &Table{
		space:       space,
		base:        base,
		keyLen:      m.KeyLen,
		bucketCount: m.BucketCount,
		bucketBase:  m.BucketBase,
		kvBase:      m.KVBase,
		kvSlotSize:  m.KVSlotSize,
		capacity:    m.Capacity,
		flags:       m.Flags,
	}
	used := make([]uint64, (t.capacity+63)/64)
	for b := uint64(0); b < t.bucketCount; b++ {
		line := t.bucket(b, false)
		for e := 0; e < EntriesPerBucket; e++ {
			if entrySig(line, e) == 0 {
				continue
			}
			idx := uint64(entryIdx(line, e))
			if idx >= t.capacity || used[idx/64]&(1<<(idx%64)) != 0 {
				return nil, ErrNotHaloible
			}
			used[idx/64] |= 1 << (idx % 64)
			t.size++
		}
	}
	t.free = make([]uint32, 0, t.capacity-t.size)
	for i := int64(t.capacity) - 1; i >= 0; i-- {
		if used[i/64]&(1<<(i%64)) == 0 {
			t.free = append(t.free, uint32(i))
		}
	}
	return t, nil
}

// CloneOnto returns a handle to t's table in space, a clone of t's memory
// (mem.Memory.Clone): the same geometry, size and counters, a copy of the
// free list and fresh scratch state, so the two handles evolve independently.
func (t *Table) CloneOnto(space *mem.Memory) *Table {
	c := *t
	c.space = space
	c.free = append([]uint32(nil), t.free...)
	c.probeHook = nil
	c.bfsNodes, c.bfsPath, c.bfsQueue, c.bfsVisited = nil, nil, nil, nil
	return &c
}

// Base returns the table's metadata address — the value software loads into
// RAX before issuing LOOKUP instructions.
func (t *Table) Base() mem.Addr { return t.base }

// KeyLen returns the table's fixed key length.
func (t *Table) KeyLen() int { return t.keyLen }

// BucketCount returns the number of buckets.
func (t *Table) BucketCount() uint64 { return t.bucketCount }

// Capacity returns the number of key-value slots.
func (t *Table) Capacity() uint64 { return t.capacity }

// Size returns the number of live entries.
func (t *Table) Size() uint64 { return t.size }

// LoadFactor returns Size/Capacity.
func (t *Table) LoadFactor() float64 { return float64(t.size) / float64(t.capacity) }

// IsSFH reports whether the table uses the single-function-hash layout.
func (t *Table) IsSFH() bool { return t.flags&FlagSFH != 0 }

// Version returns the optimistic-locking change counter.
func (t *Table) Version() uint32 { return t.space.Load32(t.base + metaVersion) }

// BucketAddr returns the address of bucket b's cache line.
func (t *Table) BucketAddr(b uint64) mem.Addr {
	return t.bucketBase + mem.Addr(b*mem.LineSize)
}

// KVAddr returns the address of key-value slot idx.
func (t *Table) KVAddr(idx uint32) mem.Addr {
	return t.kvBase + mem.Addr(uint64(idx)*t.kvSlotSize)
}

// VersionAddr returns the address of the change counter (the line writers
// bump and optimistic readers poll).
func (t *Table) VersionAddr() mem.Addr { return t.base + metaVersion }

func (t *Table) entryAddr(bucket uint64, entry int) mem.Addr {
	return t.BucketAddr(bucket) + mem.Addr(entry*entryBytes)
}

// bucket returns bucket b's cache line, aliasing simulated memory (see
// mem.Memory.Line). Every operation reads a bucket once through this and
// scans its eight entries in place, as the simulated hardware touches one
// line per bucket. Only a line obtained with create set may be written.
func (t *Table) bucket(b uint64, create bool) []byte {
	return t.space.Line(t.BucketAddr(b), create)
}

// A bucket entry is eight bytes: the 16-bit signature, two bytes of padding
// that are never written, and the 32-bit key-value slot index. Signature 0
// marks an empty entry.

func entrySig(line []byte, e int) uint16 {
	return binary.LittleEndian.Uint16(line[e*entryBytes:])
}

func entryIdx(line []byte, e int) uint32 {
	return binary.LittleEndian.Uint32(line[e*entryBytes+4:])
}

func putEntry(line []byte, e int, sig uint16, kvIdx uint32) {
	binary.LittleEndian.PutUint16(line[e*entryBytes:], sig)
	binary.LittleEndian.PutUint32(line[e*entryBytes+4:], kvIdx)
}

// firstFree returns the first empty entry of a bucket line, -1 when full.
func firstFree(line []byte) int {
	for e := 0; e < EntriesPerBucket; e++ {
		if entrySig(line, e) == 0 {
			return e
		}
	}
	return -1
}

// scan reads bucket b once. It reports the entry holding key (slot -1 when
// the bucket does not hold it) and, for a bucket that does not, the first
// empty entry (free -1 when full).
func (t *Table) scan(b uint64, sig uint16, key []byte) (slot int, kvIdx uint32, free int) {
	line := t.bucket(b, false)
	free = -1
	for e := 0; e < EntriesPerBucket; e++ {
		switch s := entrySig(line, e); {
		case s == 0:
			if free < 0 {
				free = e
			}
		case s == sig:
			if idx := entryIdx(line, e); t.keyEqual(idx, key) {
				return e, idx, free
			}
		}
	}
	return -1, 0, free
}

// find locates key in its candidate buckets, primary first; slot is -1 when
// neither holds it.
func (t *Table) find(key []byte, sig uint16, b1, b2 uint64) (b uint64, slot int, kvIdx uint32) {
	if slot, kvIdx, _ = t.scan(b1, sig, key); slot >= 0 || t.IsSFH() {
		return b1, slot, kvIdx
	}
	slot, kvIdx, _ = t.scan(b2, sig, key)
	return b2, slot, kvIdx
}

func (t *Table) valueAddr(idx uint32) mem.Addr {
	return t.KVAddr(idx) + (mem.Addr(t.keyLen)+7)&^7
}

func (t *Table) readValue(idx uint32) uint64 { return t.space.Load64(t.valueAddr(idx)) }

func (t *Table) writeKV(idx uint32, key []byte, value uint64) {
	t.space.WriteAt(t.KVAddr(idx), key)
	t.space.Store64(t.valueAddr(idx), value)
}

func (t *Table) keyEqual(idx uint32, key []byte) bool {
	buf := t.cmpBuf[:t.keyLen]
	t.space.ReadAt(t.KVAddr(idx), buf)
	return bytes.Equal(buf, key)
}

// place installs key in the empty entry (b, e), taking the next free
// key-value slot; the caller has checked the free list is not empty.
func (t *Table) place(b uint64, e int, sig uint16, key []byte, value uint64) {
	idx := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.writeKV(idx, key, value)
	putEntry(t.bucket(b, true), e, sig, idx)
	t.size++
}

func (t *Table) bumpVersion() {
	t.space.Store32(t.base+metaVersion, t.Version()+1)
}

// Hashes returns the primary hash, signature and the two candidate buckets
// for a key. SFH tables return the primary bucket twice.
func (t *Table) Hashes(key []byte) (h uint64, sig uint16, b1, b2 uint64) {
	h = hashfn.Hash(hashfn.SeedPrimary, key)
	sig = hashfn.Signature(h)
	b1, b2 = hashfn.BucketPair(h, t.bucketCount)
	if t.IsSFH() {
		b2 = b1
	}
	return
}

// Lookup finds a key functionally (no timing) and returns its value. A
// mismatched key length is a miss, and it still counts as a lookup so the
// hit rate reflects every probe the caller issued — TimedLookup accounts the
// same way (and additionally charges the early exit).
func (t *Table) Lookup(key []byte) (value uint64, ok bool) {
	t.stats.Lookups++
	if len(key) != t.keyLen {
		return 0, false
	}
	_, sig, b1, b2 := t.Hashes(key)
	if _, slot, idx := t.find(key, sig, b1, b2); slot >= 0 {
		t.stats.Hits++
		return t.readValue(idx), true
	}
	return 0, false
}

// maxDisplacements bounds the BFS cuckoo path length before declaring the
// table full.
const maxDisplacements = 128

// Insert adds a key-value pair. Inserting an existing key returns
// ErrKeyExists (use Update to change a value). The duplicate check counts as
// a lookup (and a hit when the key exists); it and the search for an empty
// entry share one read of each candidate bucket.
func (t *Table) Insert(key []byte, value uint64) error {
	if len(key) != t.keyLen {
		return ErrKeyLen
	}
	t.stats.Lookups++
	_, sig, b1, b2 := t.Hashes(key)
	slot, _, free1 := t.scan(b1, sig, key)
	free2 := -1
	if slot < 0 && !t.IsSFH() {
		slot, _, free2 = t.scan(b2, sig, key)
	}
	if slot >= 0 {
		t.stats.Hits++
		return ErrKeyExists
	}
	if len(t.free) == 0 {
		return ErrTableFull
	}
	switch {
	case free1 >= 0:
		t.place(b1, free1, sig, key, value)
	case free2 >= 0:
		t.place(b2, free2, sig, key, value)
	default:
		if t.IsSFH() || !t.displaceAndPlace(b1, b2, sig, key, value) {
			return ErrTableFull
		}
	}
	t.stats.Inserts++
	return nil
}

// displaceAndPlace makes room in b1 or b2 by a BFS displacement path and
// installs the key there. It reports false when no path exists.
func (t *Table) displaceAndPlace(b1, b2 uint64, sig uint16, key []byte, value uint64) bool {
	path := t.findCuckooPath(b1, b2)
	if path == nil {
		return false
	}
	t.applyCuckooPath(path)
	b, e := b1, firstFree(t.bucket(b1, false))
	if e < 0 {
		b, e = b2, firstFree(t.bucket(b2, false))
	}
	if e < 0 {
		return false
	}
	t.place(b, e, sig, key, value)
	return true
}

// pathNode is one step of a displacement path: the entry at (bucket, slot)
// moves to its alternative bucket.
type pathNode struct {
	bucket uint64
	slot   int
	parent int
}

// frontierItem is one BFS queue entry in findCuckooPath.
type frontierItem struct {
	bucket uint64
	node   int
}

// findCuckooPath BFS-searches for a chain of moves freeing a slot in b1 or
// b2. It returns the chain leaf-first-resolved (root..leaf order) or nil.
// The returned slice aliases the table's scratch state and is only valid
// until the next insert.
func (t *Table) findCuckooPath(b1, b2 uint64) []pathNode {
	nodes := t.bfsNodes[:0]
	queue := append(t.bfsQueue[:0], frontierItem{b1, -1}, frontierItem{b2, -1})
	head := 0
	if t.bfsVisited == nil {
		t.bfsVisited = make(map[uint64]bool)
	}
	visited := t.bfsVisited
	clear(visited)
	visited[b1], visited[b2] = true, true
	defer func() { t.bfsNodes, t.bfsQueue = nodes[:0], queue[:0] }()

	for head < len(queue) && len(nodes) < maxDisplacements*EntriesPerBucket {
		item := queue[head]
		head++
		line := t.bucket(item.bucket, false)
		for e := 0; e < EntriesPerBucket; e++ {
			sig := entrySig(line, e)
			if sig == 0 {
				continue
			}
			alt := hashfn.AltBucket(item.bucket, sig, t.bucketCount)
			nodes = append(nodes, pathNode{bucket: item.bucket, slot: e, parent: item.node})
			nodeIdx := len(nodes) - 1
			// Does the alternative bucket have a free slot?
			if firstFree(t.bucket(alt, false)) >= 0 {
				// Collect leaf→root, then reverse to root→leaf order.
				path := t.bfsPath[:0]
				for i := nodeIdx; i >= 0; i = nodes[i].parent {
					path = append(path, nodes[i])
				}
				for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
					path[l], path[r] = path[r], path[l]
				}
				t.bfsPath = path
				return path
			}
			if !visited[alt] {
				visited[alt] = true
				queue = append(queue, frontierItem{alt, nodeIdx})
			}
		}
	}
	return nil
}

// applyCuckooPath executes the moves leaf-first so no entry is ever
// unreachable; each move bumps the change counter (a concurrent optimistic
// reader would retry, paper Fig. 7a).
func (t *Table) applyCuckooPath(path []pathNode) {
	t.stats.Displacements += uint64(len(path))
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		src := t.bucket(n.bucket, true)
		sig, idx := entrySig(src, n.slot), entryIdx(src, n.slot)
		alt := hashfn.AltBucket(n.bucket, sig, t.bucketCount)
		if ae := firstFree(t.bucket(alt, false)); ae >= 0 {
			t.bumpVersion()
			putEntry(t.bucket(alt, true), ae, sig, idx)
			putEntry(src, n.slot, 0, 0)
			t.bumpVersion()
		}
	}
}

// Update changes the value of an existing key.
func (t *Table) Update(key []byte, value uint64) bool {
	if len(key) != t.keyLen {
		return false
	}
	_, sig, b1, b2 := t.Hashes(key)
	_, slot, idx := t.find(key, sig, b1, b2)
	if slot < 0 {
		return false
	}
	t.writeKV(idx, key, value)
	t.stats.Updates++
	return true
}

// Delete removes a key, returning whether it was present.
func (t *Table) Delete(key []byte) bool {
	if len(key) != t.keyLen {
		return false
	}
	_, sig, b1, b2 := t.Hashes(key)
	b, slot, idx := t.find(key, sig, b1, b2)
	if slot < 0 {
		return false
	}
	t.bumpVersion()
	putEntry(t.bucket(b, true), slot, 0, 0)
	t.bumpVersion()
	t.free = append(t.free, idx)
	t.size--
	t.stats.Deletes++
	return true
}

// live returns the key-value pairs stored in one bucket line, in entry
// order, each key in a fresh slice.
func (t *Table) live(line []byte, out []KVPair) []KVPair {
	for e := 0; e < EntriesPerBucket; e++ {
		if entrySig(line, e) == 0 {
			continue
		}
		idx := entryIdx(line, e)
		key := make([]byte, t.keyLen)
		t.space.ReadAt(t.KVAddr(idx), key)
		out = append(out, KVPair{Key: key, Value: t.readValue(idx)})
	}
	return out
}

// KVPair is one live entry exported by Entries.
type KVPair struct {
	Key   []byte
	Value uint64
}

// Entries returns the live key-value pairs stored in one bucket, for
// table-walking consumers (e.g. loading a rule set into a TCAM model).
func (t *Table) Entries(bucket uint64) []KVPair {
	return t.live(t.bucket(bucket, false), nil)
}

// BucketOccupancy returns a histogram of live entries per bucket
// (index 0..EntriesPerBucket), used for the paper's §3.3 utilisation
// analysis.
func (t *Table) BucketOccupancy() [EntriesPerBucket + 1]uint64 {
	var hist [EntriesPerBucket + 1]uint64
	for b := uint64(0); b < t.bucketCount; b++ {
		line := t.bucket(b, false)
		n := 0
		for e := 0; e < EntriesPerBucket; e++ {
			if entrySig(line, e) != 0 {
				n++
			}
		}
		hist[n]++
	}
	return hist
}

// Iterate calls fn for every live key-value pair, in bucket order. It
// returns early if fn returns false. Mutating the table during iteration is
// unsupported (matching rte_hash's iterator contract).
func (t *Table) Iterate(fn func(key []byte, value uint64) bool) {
	var pairs [EntriesPerBucket]KVPair
	for b := uint64(0); b < t.bucketCount; b++ {
		for _, kv := range t.live(t.bucket(b, false), pairs[:0]) {
			if !fn(kv.Key, kv.Value) {
				return
			}
		}
	}
}
