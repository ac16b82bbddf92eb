package cuckoo

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"halo/internal/mem"
)

func newTable(t testing.TB, cfg Config) *Table {
	t.Helper()
	space := mem.NewMemory()
	alloc := mem.NewAllocator(0x1000, 1<<30)
	tbl, err := Create(space, alloc, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tbl
}

func key16(i uint64) []byte {
	k := make([]byte, 16)
	binary.LittleEndian.PutUint64(k, i)
	binary.LittleEndian.PutUint64(k[8:], i^0xabcdef)
	return k
}

func TestInsertLookupRoundTrip(t *testing.T) {
	tbl := newTable(t, Config{Entries: 1024, KeyLen: 16})
	for i := uint64(0); i < 800; i++ {
		if err := tbl.Insert(key16(i), i*3+1); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 800; i++ {
		v, ok := tbl.Lookup(key16(i))
		if !ok || v != i*3+1 {
			t.Fatalf("Lookup %d = (%d,%v), want (%d,true)", i, v, ok, i*3+1)
		}
	}
	if _, ok := tbl.Lookup(key16(9999)); ok {
		t.Fatal("lookup of absent key succeeded")
	}
	if tbl.Size() != 800 {
		t.Fatalf("Size = %d, want 800", tbl.Size())
	}
}

func TestHighOccupancyInsertion(t *testing.T) {
	// Cuckoo hashing should reach ~95% occupancy (paper §3.3).
	tbl := newTable(t, Config{Entries: 4096, KeyLen: 16})
	inserted := uint64(0)
	for i := uint64(0); i < 4096; i++ {
		if err := tbl.Insert(key16(i), i); err != nil {
			break
		}
		inserted++
	}
	if float64(inserted)/4096 < 0.93 {
		t.Fatalf("only %d/4096 inserted (%.1f%%); cuckoo displacement too weak",
			inserted, 100*float64(inserted)/4096)
	}
	// Everything inserted is still findable after all the displacement.
	for i := uint64(0); i < inserted; i++ {
		if v, ok := tbl.Lookup(key16(i)); !ok || v != i {
			t.Fatalf("key %d lost after displacements", i)
		}
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	tbl := newTable(t, Config{Entries: 256, KeyLen: 16})
	for i := uint64(0); i < 200; i++ {
		if err := tbl.Insert(key16(i), i); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	for i := uint64(0); i < 200; i += 2 {
		if !tbl.Delete(key16(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tbl.Size() != 100 {
		t.Fatalf("Size after deletes = %d, want 100", tbl.Size())
	}
	for i := uint64(0); i < 200; i++ {
		_, ok := tbl.Lookup(key16(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v, want %v", i, ok, want)
		}
	}
	// Freed slots are reusable.
	for i := uint64(1000); i < 1100; i++ {
		if err := tbl.Insert(key16(i), i); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
}

func TestUpdate(t *testing.T) {
	tbl := newTable(t, Config{Entries: 64, KeyLen: 16})
	if err := tbl.Insert(key16(1), 10); err != nil {
		t.Fatal(err)
	}
	if !tbl.Update(key16(1), 20) {
		t.Fatal("update of present key failed")
	}
	if v, _ := tbl.Lookup(key16(1)); v != 20 {
		t.Fatalf("value after update = %d, want 20", v)
	}
	if tbl.Update(key16(2), 30) {
		t.Fatal("update of absent key succeeded")
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	tbl := newTable(t, Config{Entries: 64, KeyLen: 16})
	if err := tbl.Insert(key16(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(key16(1), 2); err != ErrKeyExists {
		t.Fatalf("duplicate insert err = %v, want ErrKeyExists", err)
	}
}

func TestKeyLenMismatch(t *testing.T) {
	tbl := newTable(t, Config{Entries: 64, KeyLen: 16})
	if err := tbl.Insert([]byte{1, 2, 3}, 1); err != ErrKeyLen {
		t.Fatalf("short key insert err = %v", err)
	}
	if _, ok := tbl.Lookup([]byte{1, 2, 3}); ok {
		t.Fatal("short key lookup succeeded")
	}
}

func TestVersionBumpsOnMovesAndDeletes(t *testing.T) {
	tbl := newTable(t, Config{Entries: 2048, KeyLen: 16})
	v0 := tbl.Version()
	// Fill to high occupancy to force displacement moves.
	for i := uint64(0); i < 1900; i++ {
		if err := tbl.Insert(key16(i), i); err != nil {
			break
		}
	}
	if tbl.Version() == v0 {
		t.Fatal("no version bumps despite cuckoo moves at high occupancy")
	}
	if tbl.Version()%2 != 0 {
		t.Fatal("version left odd: a 'write in progress' state escaped")
	}
	v1 := tbl.Version()
	tbl.Delete(key16(0))
	if tbl.Version() == v1 {
		t.Fatal("delete did not bump the version")
	}
}

func TestReadMetaRejectsGarbage(t *testing.T) {
	space := mem.NewMemory()
	if _, err := ReadMeta(space, 0x5000); err != ErrNotHaloible {
		t.Fatalf("ReadMeta of garbage err = %v", err)
	}
}

// TestReadMetaValidatesMetadata patches one metadata field at a time on a
// valid table. Before validation, key length 200 was accepted and the
// first signature match panicked slicing the 64-byte compare buffer.
func TestReadMetaValidatesMetadata(t *testing.T) {
	for _, sfh := range []bool{false, true} {
		space := mem.NewMemory()
		tbl, err := Create(space, mem.NewAllocator(0x1000, 1<<30), Config{Entries: 512, KeyLen: 16, SFH: sfh})
		if err != nil {
			t.Fatal(err)
		}
		base := tbl.Base()
		m, err := ReadMeta(space, base)
		if err != nil {
			t.Fatalf("sfh=%v: ReadMeta of an untouched table: %v", sfh, err)
		}
		if want := (Meta{KeyLen: 16, BucketCount: tbl.bucketCount, BucketBase: tbl.bucketBase, KVBase: tbl.kvBase,
			KVSlotSize: tbl.kvSlotSize, Capacity: 512, Flags: tbl.flags}); m != want {
			t.Fatalf("sfh=%v: ReadMeta = %+v, want %+v", sfh, m, want)
		}
		for _, tc := range []struct {
			name  string
			patch func()
		}{
			{"key length 200", func() { space.Store32(base+metaKeyLen, 200) }},
			{"key length 0", func() { space.Store32(base+metaKeyLen, 0) }},
			{"key length of another slot size", func() { space.Store32(base+metaKeyLen, 40) }},
			{"bucket count not a power of two", func() { space.Store64(base+metaBucketCount, tbl.bucketCount-1) }},
			{"bucket count 1", func() { space.Store64(base+metaBucketCount, 1) }},
			{"bucket count beyond the array", func() { space.Store64(base+metaBucketCount, tbl.bucketCount*2) }},
			{"slot size", func() { space.Store64(base+metaKVSlotSize, 24) }},
			{"zero capacity", func() { space.Store64(base+metaCapacity, 0) }},
			{"capacity beyond 32-bit indexes", func() { space.Store64(base+metaCapacity, 1<<40) }},
			{"unaligned bucket base", func() { space.Store64(base+metaBucketBase, uint64(tbl.bucketBase)+8) }},
			{"unaligned key-value base", func() { space.Store64(base+metaKVBase, uint64(tbl.kvBase)+16) }},
		} {
			var saved [MetaBytes]byte
			space.ReadAt(base, saved[:])
			tc.patch()
			if _, err := ReadMeta(space, base); err != ErrNotHaloible {
				t.Errorf("sfh=%v, %s: ReadMeta err = %v, want ErrNotHaloible", sfh, tc.name, err)
			}
			space.WriteAt(base, saved[:])
		}
	}
}

func TestSFHLowUtilisation(t *testing.T) {
	// The paper observes SFH tables waste space: most buckets hold only a
	// few entries and insertion fails long before cuckoo would.
	sfh := newTable(t, Config{Entries: 4096, KeyLen: 16, SFH: true})
	ck := newTable(t, Config{Entries: 4096, KeyLen: 16})
	if sfh.BucketCount() <= ck.BucketCount() {
		t.Fatal("SFH table should allocate more buckets for the same capacity")
	}
	for i := uint64(0); i < 4096; i++ {
		_ = sfh.Insert(key16(i), i)
		_ = ck.Insert(key16(i), i)
	}
	// The over-allocated SFH installs (nearly) everything, but its cache
	// footprint is far larger and its buckets mostly near-empty — that is
	// the paper's §3.3 observation (~20% utilisation, more LLC misses).
	if Footprint(Config{Entries: 4096, KeyLen: 16, SFH: true}) <
		2*Footprint(Config{Entries: 4096, KeyLen: 16}) {
		t.Fatal("SFH footprint should dwarf the cuckoo footprint")
	}
	hist := sfh.BucketOccupancy()
	sparse := hist[0] + hist[1] + hist[2]
	if frac := float64(sparse) / float64(sfh.BucketCount()); frac < 0.9 {
		t.Fatalf("only %.0f%% of SFH buckets hold <=2 entries; expected near all", 100*frac)
	}
	util := float64(sfh.Size()) / (float64(sfh.BucketCount()) * EntriesPerBucket)
	if util > 0.35 {
		t.Fatalf("SFH utilisation %.2f; paper observes ~0.2", util)
	}
	// And everything installed is still found.
	found := uint64(0)
	for i := uint64(0); i < 4096; i++ {
		if _, ok := sfh.Lookup(key16(i)); ok {
			found++
		}
	}
	if found != sfh.Size() {
		t.Fatalf("SFH lookup found %d, size says %d", found, sfh.Size())
	}
}

func TestBucketOccupancyHistogram(t *testing.T) {
	tbl := newTable(t, Config{Entries: 1024, KeyLen: 16})
	for i := uint64(0); i < 900; i++ {
		if err := tbl.Insert(key16(i), i); err != nil {
			t.Fatal(err)
		}
	}
	hist := tbl.BucketOccupancy()
	var total, buckets uint64
	for n, c := range hist {
		total += uint64(n) * c
		buckets += c
	}
	if total != 900 {
		t.Fatalf("histogram sums to %d entries, want 900", total)
	}
	if buckets != tbl.BucketCount() {
		t.Fatalf("histogram covers %d buckets, want %d", buckets, tbl.BucketCount())
	}
}

func TestFootprintMatchesAllocator(t *testing.T) {
	cfg := Config{Entries: 1 << 12, KeyLen: 24}
	space := mem.NewMemory()
	base := mem.Addr(0x40)
	alloc := mem.NewAllocator(base, 1<<30)
	if _, err := Create(space, alloc, cfg); err != nil {
		t.Fatal(err)
	}
	if used := alloc.Used(base); used > Footprint(cfg)+mem.LineSize {
		t.Fatalf("allocator used %d, Footprint says %d", used, Footprint(cfg))
	}
}

func TestPropertyModelEquivalence(t *testing.T) {
	// The table must behave exactly like a map under a random op sequence.
	type op struct {
		Kind  uint8
		Key   uint16
		Value uint64
	}
	check := func(ops []op) bool {
		tbl := newTable(t, Config{Entries: 256, KeyLen: 16})
		model := map[uint16]uint64{}
		for _, o := range ops {
			k := key16(uint64(o.Key % 400))
			mk := o.Key % 400
			switch o.Kind % 3 {
			case 0: // insert
				err := tbl.Insert(k, o.Value)
				_, exists := model[mk]
				switch {
				case exists && err != ErrKeyExists:
					return false
				case !exists && err == nil:
					model[mk] = o.Value
				case !exists && err != ErrTableFull:
					return false
				}
			case 1: // delete
				got := tbl.Delete(k)
				_, exists := model[mk]
				if got != exists {
					return false
				}
				delete(model, mk)
			case 2: // lookup
				v, ok := tbl.Lookup(k)
				want, exists := model[mk]
				if ok != exists || (ok && v != want) {
					return false
				}
			}
		}
		// Full sweep at the end.
		for mk, want := range model {
			if v, ok := tbl.Lookup(key16(uint64(mk))); !ok || v != want {
				return false
			}
		}
		return uint64(len(model)) == tbl.Size()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVariousKeyLengths(t *testing.T) {
	for _, kl := range []int{4, 8, 13, 16, 24, 40, 64} {
		kl := kl
		t.Run(fmt.Sprintf("keylen%d", kl), func(t *testing.T) {
			tbl := newTable(t, Config{Entries: 128, KeyLen: kl})
			for i := 0; i < 100; i++ {
				k := make([]byte, kl)
				for j := range k {
					k[j] = byte(i + j*7)
				}
				if err := tbl.Insert(k, uint64(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				if v, ok := tbl.Lookup(k); !ok || v != uint64(i) {
					t.Fatalf("lookup %d failed", i)
				}
			}
		})
	}
}

func TestCreateRejectsBadConfig(t *testing.T) {
	space := mem.NewMemory()
	alloc := mem.NewAllocator(0, 1<<30)
	if _, err := Create(space, alloc, Config{Entries: 10, KeyLen: 0}); err == nil {
		t.Fatal("zero key length accepted")
	}
	if _, err := Create(space, alloc, Config{Entries: 10, KeyLen: 65}); err == nil {
		t.Fatal("oversized key length accepted")
	}
	if _, err := Create(space, alloc, Config{Entries: 0, KeyLen: 8}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestIterateVisitsEverythingOnce(t *testing.T) {
	tbl := newTable(t, Config{Entries: 512, KeyLen: 16})
	want := map[string]uint64{}
	for i := uint64(0); i < 400; i++ {
		if err := tbl.Insert(key16(i), i*9); err != nil {
			t.Fatal(err)
		}
		want[string(key16(i))] = i * 9
	}
	got := map[string]uint64{}
	tbl.Iterate(func(key []byte, value uint64) bool {
		if _, dup := got[string(key)]; dup {
			t.Fatalf("key visited twice")
		}
		got[string(key)] = value
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("value mismatch for %x", k)
		}
	}
	// Early termination.
	n := 0
	tbl.Iterate(func([]byte, uint64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}
