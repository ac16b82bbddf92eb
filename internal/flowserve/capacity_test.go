package flowserve

import (
	"math/bits"
	"testing"

	"halo/internal/hashfn"
)

// TestNewRejectsPerShardOverflow pins the slot-index-width guard: a bucket
// entry holds a slot index of at most 24 bits beside its signature, so a
// shard of 1<<24 entries or more is refused rather than given signatures
// narrower than 8 bits.
func TestNewRejectsPerShardOverflow(t *testing.T) {
	cases := []Config{
		{Shards: 1, Entries: 1 << 24, KeyLen: 20},
		{Shards: 1, Entries: 1<<24 + 1, KeyLen: 20},
		{Shards: 4, Entries: 4 << 24, KeyLen: 20},
		// Ceil division: 4*(1<<24) - 3 entries over 4 shards is still 1<<24
		// per shard.
		{Shards: 4, Entries: 4<<24 - 3, KeyLen: 20},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted a per-shard capacity whose slot indexes overflow 24 bits", cfg)
		}
	}
}

// TestBitBudgetAtMaxPerShard takes the largest shard New accepts and checks
// that its hash bits keep out of hashfn.ShardIndex's bits 24..47:
// the bucket index below them (at most 21 bits), the signature above them
// (at least 8 bits), so sharding skews neither bucket occupancy nor
// signature entropy within a shard. The largest slot index still fits above
// the signature in 32 bits.
func TestBitBudgetAtMaxPerShard(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: maxPerShard - 1, KeyLen: 20})
	sh := tbl.shards[0]
	if n := bits.Len64(sh.bucketCount() - 1); n > 21 {
		t.Fatalf("%d buckets take %d index bits, want <= 21", sh.bucketCount(), n)
	}
	if sh.sigBits != 8 {
		t.Fatalf("sigBits = %d at %d slots, want 8", sh.sigBits, sh.capacity)
	}
	if top := (sh.capacity-1)<<sh.sigBits | uint64(sh.sigMask); top > 1<<32-1 {
		t.Fatalf("largest entry %#x overflows 32 bits", top)
	}
	const shardBits = 1<<48 - 1<<24 // the bits ShardIndex reads at its widest
	if hashfn.ShardIndex(^uint64(shardBits), 1<<24) != 0 || hashfn.ShardIndex(shardBits, 1<<24) != 1<<24-1 {
		t.Fatal("hashfn.ShardIndex no longer reads exactly bits 24..47")
	}
	if b1, _, sig := hashfn.Buckets(shardBits, sh.bucketCount(), sh.sigBits); b1 != 0 || sig != 1 {
		t.Fatalf("a hash of shard bits alone gives bucket %d, signature %#x: they overlap the shard index", b1, sig)
	}
	if b1, _, sig := hashfn.Buckets(^uint64(shardBits), sh.bucketCount(), sh.sigBits); b1 != sh.bucketCount()-1 || uint32(sig) != sh.sigMask {
		t.Fatalf("a hash without shard bits gives bucket %d, signature %#x: the bucket or signature bits reach into the shard index", b1, sig)
	}
}

// TestCapacityAddressable pins the bucket-count rounding fix: the bucket
// array must address at least Capacity() entries. Pre-PR, entries was
// divided by EntriesPerBucket rounding DOWN before the power-of-two round-up,
// so e.g. a 20-entry shard got 2 buckets = 16 addressable entries while
// Capacity() reported 20.
func TestCapacityAddressable(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: 1, Entries: 20, KeyLen: 20},
		{Shards: 1, Entries: 9, KeyLen: 20},
		{Shards: 1, Entries: 17, KeyLen: 20},
		{Shards: 1, Entries: 33, KeyLen: 20},
		{Shards: 1, Entries: 1000, KeyLen: 20},
		{Shards: 4, Entries: 100, KeyLen: 20},
		{Shards: 8, Entries: 1, KeyLen: 20},
		{Shards: 2, Entries: 31, KeyLen: 20},
	} {
		tbl := mustNew(t, cfg)
		for _, sh := range tbl.shards {
			if sh.capacity > sh.bucketCount()*EntriesPerBucket {
				t.Fatalf("cfg %+v: shard capacity %d exceeds %d addressable bucket entries",
					cfg, sh.capacity, sh.bucketCount()*EntriesPerBucket)
			}
		}
	}
}

// TestFillToAdvertisedCapacity fills a 20-entry single-shard table to its
// full advertised capacity. Pre-PR this hit ErrTableFull at 17 of 20: the
// undersized bucket array ran out of addressable entries before the slot
// array ran out of slots.
func TestFillToAdvertisedCapacity(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 20, KeyLen: 20})
	for i := uint64(0); i < 20; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatalf("Insert %d of %d below advertised capacity: %v", i+1, tbl.Capacity(), err)
		}
	}
	for i := uint64(0); i < 20; i++ {
		if v, ok := tbl.Lookup(key20(i)); !ok || v != i {
			t.Fatalf("Lookup(%d) = (%d,%v) after filling to capacity", i, v, ok)
		}
	}
}
