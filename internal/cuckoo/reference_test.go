package cuckoo

import (
	"bytes"
	"slices"
	"testing"

	"halo/internal/hashfn"
	"halo/internal/mem"
)

// refTable is the per-entry functional path the line-at-a-time one replaced,
// kept as the reference the equivalence tests replay against: every entry
// access is its own scalar load or store, Insert runs a full Lookup and then
// hashes again, and each "first free slot" search re-reads the bucket. It
// runs on its own memory, laid out by an identical allocator, so the two
// simulated-memory images can be compared byte for byte.
type refTable struct {
	m    *mem.Memory
	meta *Table // immutable layout only (addresses, key length, flags)

	free  []uint32
	size  uint64
	stats TableStats
}

func newRefTable(t testing.TB, cfg Config, arenaBase mem.Addr) *refTable {
	t.Helper()
	m := mem.NewMemory()
	meta, err := Create(m, mem.NewAllocator(arenaBase, 1<<30), cfg)
	if err != nil {
		t.Fatalf("reference Create: %v", err)
	}
	return &refTable{m: m, meta: meta, free: slices.Clone(meta.free)}
}

func (r *refTable) readEntry(b uint64, e int) (uint16, uint32) {
	a := r.meta.entryAddr(b, e)
	return r.m.Load16(a), r.m.Load32(a + 4)
}

func (r *refTable) writeEntry(b uint64, e int, sig uint16, idx uint32) {
	a := r.meta.entryAddr(b, e)
	r.m.Store16(a, sig)
	r.m.Store32(a+4, idx)
}

func (r *refTable) keyEqual(idx uint32, key []byte) bool {
	buf := make([]byte, r.meta.keyLen)
	r.m.ReadAt(r.meta.KVAddr(idx), buf)
	return bytes.Equal(buf, key)
}

func (r *refTable) writeKV(idx uint32, key []byte, value uint64) {
	r.m.WriteAt(r.meta.KVAddr(idx), key)
	r.m.Store64(r.meta.valueAddr(idx), value)
}

func (r *refTable) bumpVersion() {
	a := r.meta.VersionAddr()
	r.m.Store32(a, r.m.Load32(a)+1)
}

// locate is the old probe loop: entries of b1 in order, then of b2.
func (r *refTable) locate(key []byte) (b uint64, e int, idx uint32, ok bool) {
	_, sig, b1, b2 := r.meta.Hashes(key)
	for _, b := range [2]uint64{b1, b2} {
		for e := 0; e < EntriesPerBucket; e++ {
			s, idx := r.readEntry(b, e)
			if s == sig && r.keyEqual(idx, key) {
				return b, e, idx, true
			}
		}
		if r.meta.IsSFH() {
			break
		}
	}
	return 0, 0, 0, false
}

func (r *refTable) Lookup(key []byte) (uint64, bool) {
	r.stats.Lookups++
	if len(key) != r.meta.keyLen {
		return 0, false
	}
	if _, _, idx, ok := r.locate(key); ok {
		r.stats.Hits++
		return r.m.Load64(r.meta.valueAddr(idx)), true
	}
	return 0, false
}

func (r *refTable) place(b uint64, sig uint16, key []byte, value uint64) bool {
	for e := 0; e < EntriesPerBucket; e++ {
		if s, _ := r.readEntry(b, e); s == 0 {
			idx := r.free[len(r.free)-1]
			r.free = r.free[:len(r.free)-1]
			r.writeKV(idx, key, value)
			r.writeEntry(b, e, sig, idx)
			r.size++
			return true
		}
	}
	return false
}

func (r *refTable) Insert(key []byte, value uint64) error {
	if len(key) != r.meta.keyLen {
		return ErrKeyLen
	}
	if _, exists := r.Lookup(key); exists {
		return ErrKeyExists
	}
	if len(r.free) == 0 {
		return ErrTableFull
	}
	_, sig, b1, b2 := r.meta.Hashes(key)
	if r.place(b1, sig, key, value) {
		r.stats.Inserts++
		return nil
	}
	if r.meta.IsSFH() {
		return ErrTableFull
	}
	if r.place(b2, sig, key, value) {
		r.stats.Inserts++
		return nil
	}
	if path := r.findPath(b1, b2); path != nil {
		r.applyPath(path)
		if r.place(b1, sig, key, value) || r.place(b2, sig, key, value) {
			r.stats.Inserts++
			return nil
		}
	}
	return ErrTableFull
}

func (r *refTable) hasFree(b uint64) bool {
	for e := 0; e < EntriesPerBucket; e++ {
		if s, _ := r.readEntry(b, e); s == 0 {
			return true
		}
	}
	return false
}

// refStep is one move of a reference displacement path: the entry at
// (bucket, slot) moves to its alternative bucket; parent is the step it
// makes room for.
type refStep struct {
	bucket uint64
	slot   int
	parent int
}

// refFrontier is one queued bucket of the reference BFS.
type refFrontier struct {
	bucket uint64
	node   int
}

func (r *refTable) findPath(b1, b2 uint64) []refStep {
	var nodes []refStep
	queue := []refFrontier{{b1, -1}, {b2, -1}}
	visited := map[uint64]bool{b1: true, b2: true}
	for head := 0; head < len(queue) && len(nodes) < hashfn.MaxDisplacements*EntriesPerBucket; head++ {
		item := queue[head]
		for e := 0; e < EntriesPerBucket; e++ {
			sig, _ := r.readEntry(item.bucket, e)
			if sig == 0 {
				continue
			}
			alt := hashfn.AltBucket(item.bucket, sig, r.meta.bucketCount)
			nodes = append(nodes, refStep{bucket: item.bucket, slot: e, parent: item.node})
			nodeIdx := len(nodes) - 1
			if r.hasFree(alt) {
				var path []refStep
				for i := nodeIdx; i >= 0; i = nodes[i].parent {
					path = append(path, nodes[i])
				}
				slices.Reverse(path)
				return path
			}
			if !visited[alt] {
				visited[alt] = true
				queue = append(queue, refFrontier{alt, nodeIdx})
			}
		}
	}
	return nil
}

func (r *refTable) applyPath(path []refStep) {
	r.stats.Displacements += uint64(len(path))
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		sig, idx := r.readEntry(n.bucket, n.slot)
		alt := hashfn.AltBucket(n.bucket, sig, r.meta.bucketCount)
		for ae := 0; ae < EntriesPerBucket; ae++ {
			if s, _ := r.readEntry(alt, ae); s == 0 {
				r.bumpVersion()
				r.writeEntry(alt, ae, sig, idx)
				r.writeEntry(n.bucket, n.slot, 0, 0)
				r.bumpVersion()
				break
			}
		}
	}
}

func (r *refTable) Update(key []byte, value uint64) bool {
	if len(key) != r.meta.keyLen {
		return false
	}
	_, _, idx, ok := r.locate(key)
	if ok {
		r.writeKV(idx, key, value)
		r.stats.Updates++
	}
	return ok
}

func (r *refTable) Delete(key []byte) bool {
	if len(key) != r.meta.keyLen {
		return false
	}
	b, e, idx, ok := r.locate(key)
	if ok {
		r.bumpVersion()
		r.writeEntry(b, e, 0, 0)
		r.bumpVersion()
		r.free = append(r.free, idx)
		r.size--
		r.stats.Deletes++
	}
	return ok
}

// tablePair drives a Table and its reference through the same operations
// and, after each one, requires the same result, counters, size, free-list
// order and simulated-memory image.
type tablePair struct {
	t    testing.TB
	tbl  *Table
	ref  *refTable
	base mem.Addr // arena base; the image compared is [base, base+len(got))
	got  []byte   // image scratch, one arena's worth each
	want []byte
	nOps int
}

func newTablePair(t testing.TB, cfg Config) *tablePair {
	t.Helper()
	const arenaBase = 0x1000
	alloc := mem.NewAllocator(arenaBase, 1<<30)
	tbl, err := Create(mem.NewMemory(), alloc, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	p := &tablePair{t: t, tbl: tbl, ref: newRefTable(t, cfg, arenaBase), base: arenaBase,
		got: make([]byte, alloc.Used(arenaBase)), want: make([]byte, alloc.Used(arenaBase))}
	p.check("create")
	return p
}

func (p *tablePair) check(op string) {
	p.t.Helper()
	p.nOps++
	if got, want := p.tbl.Stats(), p.ref.stats; got != want {
		p.t.Fatalf("op %d (%s): stats %+v, reference %+v", p.nOps, op, got, want)
	}
	if p.tbl.Size() != p.ref.size {
		p.t.Fatalf("op %d (%s): Size %d, reference %d", p.nOps, op, p.tbl.Size(), p.ref.size)
	}
	if !slices.Equal(p.tbl.free, p.ref.free) {
		p.t.Fatalf("op %d (%s): free-list order diverged:\n got  %v\n want %v", p.nOps, op, p.tbl.free, p.ref.free)
	}
	// Same pages allocated (a read must not materialise one) and the same
	// bytes in them. The arena is the only region either table touches.
	if got, want := p.tbl.space.FootprintBytes(), p.ref.m.FootprintBytes(); got != want {
		p.t.Fatalf("op %d (%s): %d bytes of pages allocated, reference %d", p.nOps, op, got, want)
	}
	p.tbl.space.ReadAt(p.base, p.got)
	p.ref.m.ReadAt(p.base, p.want)
	if !bytes.Equal(p.got, p.want) {
		for i := range p.got {
			if p.got[i] != p.want[i] {
				p.t.Fatalf("op %d (%s): memory image differs at %#x: %#02x, reference %#02x",
					p.nOps, op, uint64(p.base)+uint64(i), p.got[i], p.want[i])
			}
		}
	}
}

func (p *tablePair) insert(key []byte, v uint64) error {
	p.t.Helper()
	err, want := p.tbl.Insert(key, v), p.ref.Insert(key, v)
	if err != want {
		p.t.Fatalf("op %d: Insert = %v, reference %v", p.nOps+1, err, want)
	}
	p.check("insert")
	return err
}

func (p *tablePair) delete(key []byte) bool {
	p.t.Helper()
	ok, want := p.tbl.Delete(key), p.ref.Delete(key)
	if ok != want {
		p.t.Fatalf("op %d: Delete = %v, reference %v", p.nOps+1, ok, want)
	}
	p.check("delete")
	return ok
}

func (p *tablePair) lookup(key []byte) (uint64, bool) {
	p.t.Helper()
	v, ok := p.tbl.Lookup(key)
	wv, wok := p.ref.Lookup(key)
	if v != wv || ok != wok {
		p.t.Fatalf("op %d: Lookup = (%d,%v), reference (%d,%v)", p.nOps+1, v, ok, wv, wok)
	}
	p.check("lookup")
	return v, ok
}

func (p *tablePair) update(key []byte, v uint64) bool {
	p.t.Helper()
	ok, want := p.tbl.Update(key, v), p.ref.Update(key, v)
	if ok != want {
		p.t.Fatalf("op %d: Update = %v, reference %v", p.nOps+1, ok, want)
	}
	p.check("update")
	return ok
}

// TestLineScanMatchesPerEntryReference replays op sequences chosen to reach
// each branch of the bucket scan against the per-entry reference.
func TestLineScanMatchesPerEntryReference(t *testing.T) {
	t.Run("displacement chains", func(t *testing.T) {
		p := newTablePair(t, Config{Entries: 256, KeyLen: 16})
		for i := uint64(0); i < 300; i++ { // past capacity: moves, then ErrTableFull
			p.insert(key16(i), i)
		}
		if p.tbl.Stats().Displacements == 0 {
			t.Fatal("sequence never displaced an entry")
		}
		for i := uint64(0); i < 300; i++ {
			p.lookup(key16(i))
		}
	})
	t.Run("sfh full bucket", func(t *testing.T) {
		// SFH tables get 5x the buckets, so only keys picked to share one
		// bucket overflow it while key-value slots remain.
		p := newTablePair(t, Config{Entries: 64, KeyLen: 16, SFH: true})
		var same []uint64
		for i := uint64(0); len(same) < EntriesPerBucket+2; i++ {
			if _, _, b1, _ := p.tbl.Hashes(key16(i)); b1 == 3 {
				same = append(same, i)
			}
		}
		for n, i := range same {
			if err := p.insert(key16(i), i); (err == ErrTableFull) != (n >= EntriesPerBucket) {
				t.Fatalf("insert %d into one SFH bucket: %v", n, err)
			}
		}
		for _, i := range same {
			p.lookup(key16(i))
			p.update(key16(i), i+7)
			p.delete(key16(i))
		}
	})
	t.Run("delete then reinsert recycles slots", func(t *testing.T) {
		p := newTablePair(t, Config{Entries: 64, KeyLen: 16})
		for i := uint64(0); i < 40; i++ {
			p.insert(key16(i), i)
		}
		for i := uint64(0); i < 40; i += 3 {
			p.delete(key16(i))
		}
		for i := uint64(100); i < 120; i++ { // takes the freed slots, last freed first
			p.insert(key16(i), i)
		}
		p.insert(key16(100), 1) // duplicate: a lookup and a hit, no insert
		p.update(key16(101), 5)
		p.update(key16(0), 5) // deleted above
	})
	t.Run("bucket on a never-written page", func(t *testing.T) {
		// 4096 buckets are 256 KiB: four pages, of which two inserts write
		// at most two. Everything else probes buckets that read as zero.
		p := newTablePair(t, Config{Entries: 1 << 15, KeyLen: 16})
		p.insert(key16(1), 1)
		p.insert(key16(2), 2)
		for i := uint64(3); i < 200; i++ {
			p.lookup(key16(i))
			p.delete(key16(i))
			p.update(key16(i), i)
		}
	})
	t.Run("long keys straddle lines", func(t *testing.T) {
		p := newTablePair(t, Config{Entries: 128, KeyLen: 64})
		k := func(i uint64) []byte { return bytes.Repeat(key16(i), 4) }
		for i := uint64(0); i < 140; i++ {
			p.insert(k(i), i)
		}
		for i := uint64(0); i < 140; i += 2 {
			p.delete(k(i))
			p.lookup(k(i + 1))
		}
		p.insert(k(0)[:10], 1) // wrong length: no counters move
		p.lookup(k(0)[:10])    // wrong length: a counted miss
	})
}
