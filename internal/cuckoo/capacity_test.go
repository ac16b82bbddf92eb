package cuckoo

import (
	"errors"
	"testing"

	"halo/internal/mem"
)

// TestCapacityAddressable: the bucket array addresses at least Capacity()
// entries for every capacity, as hashfn.BucketCount rounds the entries per
// bucket up. Rounding down gave a 20-entry table two buckets, 16 entries.
func TestCapacityAddressable(t *testing.T) {
	space := mem.NewMemory()
	alloc := mem.NewAllocator(0x1000, 1<<32)
	for e := uint64(1); e <= 4096; e++ {
		for _, sfh := range []bool{false, true} {
			tbl, err := Create(space, alloc, Config{Entries: e, KeyLen: 8, SFH: sfh})
			if err != nil {
				t.Fatalf("Create(%d entries, SFH %v): %v", e, sfh, err)
			}
			if tbl.Capacity() > tbl.BucketCount()*EntriesPerBucket {
				t.Fatalf("Entries %d, SFH %v: capacity %d exceeds %d addressable bucket entries",
					e, sfh, tbl.Capacity(), tbl.BucketCount()*EntriesPerBucket)
			}
		}
	}
}

// TestFillToCapacity fills tables whose entry count is not a multiple of
// the bucket width to their full Capacity(); the next key finds no slot.
func TestFillToCapacity(t *testing.T) {
	for _, entries := range []uint64{20, 130, 1030} {
		tbl := newTable(t, Config{Entries: entries, KeyLen: 16})
		for i := range tbl.Capacity() {
			if err := tbl.Insert(key16(i), i); err != nil {
				t.Fatalf("Entries %d: insert %d of %d: %v", entries, i+1, tbl.Capacity(), err)
			}
		}
		if err := tbl.Insert(key16(entries), 0); !errors.Is(err, ErrTableFull) {
			t.Fatalf("Entries %d: insert past capacity = %v, want ErrTableFull", entries, err)
		}
		for i := range tbl.Capacity() {
			if v, ok := tbl.Lookup(key16(i)); !ok || v != i {
				t.Fatalf("Entries %d: key %d lost after the fill", entries, i)
			}
		}
	}
}
