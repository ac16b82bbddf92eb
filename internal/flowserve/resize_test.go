package flowserve

import (
	"math/bits"
	"testing"

	"halo/internal/hashfn"
	"halo/internal/stats"
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

// TestGrowRejectsPerShardOverflow is the same boundary applied to Grow.
func TestGrowRejectsPerShardOverflow(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 64, KeyLen: 20})
	if err := tbl.Grow(1 << 24); err == nil || err == ErrShrink {
		t.Fatalf("Grow(1<<24) on a 1-shard table = %v, want a slot-index-width error", err)
	}
}

// TestBitBudgetAtMaxPerShard takes the largest shard New accepts and checks
// that its region's hash bits keep out of hashfn.ShardIndex's bits 24..47:
// the bucket index below them (at most 21 bits), the signature above them
// (at least 8 bits), so sharding skews neither bucket occupancy nor
// signature entropy within a shard. The largest slot index still fits above
// the signature in 32 bits.
func TestBitBudgetAtMaxPerShard(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: maxPerShard - 1, KeyLen: 20})
	r := tbl.shards[0].regions.Load().cur
	if n := bits.Len64(r.bucketCount - 1); n > 21 {
		t.Fatalf("%d buckets take %d index bits, want <= 21", r.bucketCount, n)
	}
	if r.sigBits != 8 {
		t.Fatalf("sigBits = %d at %d slots, want 8", r.sigBits, r.capacity)
	}
	if top := (r.capacity-1)<<r.sigBits | uint64(r.sigMask); top > 1<<32-1 {
		t.Fatalf("largest entry %#x overflows 32 bits", top)
	}
	const shardBits = 1<<48 - 1<<24 // the bits ShardIndex reads at its widest
	if hashfn.ShardIndex(^uint64(shardBits), 1<<24) != 0 || hashfn.ShardIndex(shardBits, 1<<24) != 1<<24-1 {
		t.Fatal("hashfn.ShardIndex no longer reads exactly bits 24..47")
	}
	if b1, _, sig := r.buckets(shardBits); b1 != 0 || sig != 1 {
		t.Fatalf("a hash of shard bits alone gives bucket %d, signature %#x: they overlap the shard index", b1, sig)
	}
	if b1, _, sig := r.buckets(^uint64(shardBits)); b1 != r.bucketCount-1 || sig != r.sigMask {
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
			r := sh.regions.Load().cur
			if r.capacity > r.bucketCount*EntriesPerBucket {
				t.Fatalf("cfg %+v: shard capacity %d exceeds %d addressable bucket entries",
					cfg, r.capacity, r.bucketCount*EntriesPerBucket)
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

// drain completes any in-flight migration synchronously.
func drain(tbl *Table) {
	for tbl.ResizeStep(64) {
	}
}

func TestGrowExplicit(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 4, Entries: 1024, KeyLen: 20})
	const n = 800
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i^0x5a5a); err != nil {
			t.Fatal(err)
		}
	}
	oldCap := tbl.Capacity()
	if err := tbl.Grow(4 * oldCap); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if !tbl.Resizing() {
		t.Fatal("Grow started no migration")
	}
	if got := tbl.Capacity(); got < 4*oldCap {
		t.Fatalf("Capacity during resize = %d, want >= %d (the new regions')", got, 4*oldCap)
	}
	// Keys must be served mid-migration: step one bucket at a time and verify
	// the full key set between steps.
	steps := 0
	for tbl.ResizeStep(1) {
		steps++
		if steps%37 != 0 {
			continue
		}
		for i := uint64(0); i < n; i += 97 {
			if v, ok := tbl.Lookup(key20(i)); !ok || v != i^0x5a5a {
				t.Fatalf("mid-migration Lookup(%d) = (%d,%v)", i, v, ok)
			}
		}
	}
	if tbl.Resizing() {
		t.Fatal("ResizeStep reported done with a migration still in flight")
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.Lookup(key20(i)); !ok || v != i^0x5a5a {
			t.Fatalf("post-migration Lookup(%d) = (%d,%v)", i, v, ok)
		}
	}
	s := tbl.Stats()
	if s.Grows != 4 {
		t.Fatalf("Grows = %d, want 4 (one per shard)", s.Grows)
	}
	if s.MigratedKeys != n {
		t.Fatalf("MigratedKeys = %d, want %d", s.MigratedKeys, n)
	}
	if s.ResizeSteps == 0 || s.MigratedBuckets == 0 {
		t.Fatalf("resize accounting empty: %+v", s)
	}
	if tbl.ResizePauses().Count() == 0 {
		t.Fatal("stepped migration recorded no pause samples")
	}
	if s.ResizingShards != 0 {
		t.Fatalf("ResizingShards = %d after drain", s.ResizingShards)
	}
}

func TestGrowErrShrink(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 2, Entries: 256, KeyLen: 20})
	if err := tbl.Grow(tbl.Capacity()); err != ErrShrink {
		t.Fatalf("Grow(current capacity) = %v, want ErrShrink", err)
	}
	if err := tbl.Grow(10); err != ErrShrink {
		t.Fatalf("Grow(smaller) = %v, want ErrShrink", err)
	}
}

// TestGrowStartGauge: a grow start's new-region allocation, which the
// migration-step pause histogram never times, shows as its own gauge. It is
// one table's maximum: a rollup of two snapshots, as a cluster's STATS
// merges its nodes', carries the sum (DESIGN.md §12).
func TestGrowStartGauge(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 2, Entries: 1 << 12, KeyLen: 20})
	const name = "flowserve.resize.grow_start_max_ns"
	snap := stats.NewSnapshot()
	tbl.CollectInto(snap)
	if g := snap.Counter(name); g != 0 {
		t.Fatalf("grow_start_max_ns = %d before any grow, want 0", g)
	}
	if err := tbl.Grow(1 << 16); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	snap = stats.NewSnapshot()
	tbl.CollectInto(snap)
	g := snap.Counter(name)
	if g == 0 {
		t.Fatal("grow_start_max_ns = 0 after Grow started two resizes")
	}
	rollup := stats.NewSnapshot()
	rollup.Merge(snap)
	rollup.Merge(snap)
	if r := rollup.Counter(name); r != 2*g {
		t.Fatalf("rollup of two snapshots reads %d, want the sum %d", r, 2*g)
	}
}

// TestMigrationAmortisedOverWrites checks that ordinary writer traffic — not
// just ResizeStep — advances an in-flight migration, bounded per op.
func TestMigrationAmortisedOverWrites(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 512, KeyLen: 20})
	const n = 400
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Grow(2 * tbl.Capacity()); err != nil {
		t.Fatal(err)
	}
	// Interleave inserts, updates and deletes; each moves at most 2 buckets.
	updated := make(map[uint64]bool)
	i := uint64(n)
	for tbl.Resizing() {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatalf("insert during migration: %v", err)
		}
		if !tbl.Update(key20(i/2), 7777) {
			t.Fatalf("update of key %d during migration failed", i/2)
		}
		updated[i/2] = true
		if !tbl.Delete(key20(i)) {
			t.Fatalf("delete during migration failed")
		}
		i++
		if i > n+10000 {
			t.Fatal("writer traffic never completed the migration")
		}
	}
	s := tbl.Stats()
	if s.MigratedBuckets == 0 {
		t.Fatal("no buckets migrated by writer traffic")
	}
	for j := uint64(0); j < n; j++ {
		want := j
		if updated[j] {
			want = 7777
		}
		if v, ok := tbl.Lookup(key20(j)); !ok || v != want {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true) after amortised migration", j, v, ok, want)
		}
	}
}

// TestUpdateDeleteInOldRegion exercises mutations against keys that still
// live in the old region mid-migration.
func TestUpdateDeleteInOldRegion(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 256, KeyLen: 20})
	const n = 200
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Grow(2 * tbl.Capacity()); err != nil {
		t.Fatal(err)
	}
	tbl.ResizeStep(1) // partial: most keys still in the old region
	if !tbl.Resizing() {
		t.Skip("migration completed in one step; nothing left in old region")
	}
	for i := uint64(0); i < n; i += 2 {
		if !tbl.Update(key20(i), i+1000) {
			t.Fatalf("Update(%d) mid-migration failed", i)
		}
	}
	for i := uint64(1); i < n; i += 4 {
		if !tbl.Delete(key20(i)) {
			t.Fatalf("Delete(%d) mid-migration failed", i)
		}
	}
	drain(tbl)
	for i := uint64(0); i < n; i++ {
		v, ok := tbl.Lookup(key20(i))
		switch {
		case i%2 == 0:
			if !ok || v != i+1000 {
				t.Fatalf("updated key %d = (%d,%v), want (%d,true)", i, v, ok, i+1000)
			}
		case i%4 == 1:
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
		default:
			if !ok || v != i {
				t.Fatalf("untouched key %d = (%d,%v), want (%d,true)", i, v, ok, i)
			}
		}
	}
}

// TestAutoGrow fills far past the initial capacity with GrowAt set and
// verifies the table doubled its way up without ever returning ErrTableFull.
func TestAutoGrow(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 2, Entries: 64, KeyLen: 20, GrowAt: 0.85})
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i*7); err != nil {
			t.Fatalf("auto-grow Insert(%d): %v", i, err)
		}
	}
	drain(tbl)
	if got := tbl.Size(); got != n {
		t.Fatalf("Size = %d, want %d", got, n)
	}
	if cap := tbl.Capacity(); cap < n {
		t.Fatalf("Capacity = %d after %d inserts, auto-grow never kept up", cap, n)
	}
	s := tbl.Stats()
	// 64 entries over 2 shards is 32 per shard; reaching ~1500 keys per shard
	// takes at least 5 doublings each.
	if s.Grows < 10 {
		t.Fatalf("Grows = %d, want >= 10 across 2 shards", s.Grows)
	}
	if s.InsertFull != 0 {
		t.Fatalf("auto-grow still returned ErrTableFull %d times", s.InsertFull)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tbl.Lookup(key20(i)); !ok || v != i*7 {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", i, v, ok, i*7)
		}
	}
}

// TestGrowFinishesInFlightMigration: a second Grow while a migration is in
// flight must first drain it (regions never stack more than two deep).
func TestGrowFinishesInFlightMigration(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 128, KeyLen: 20})
	for i := uint64(0); i < 100; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Grow(256); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Grow(1024); err != nil {
		t.Fatalf("Grow during in-flight migration: %v", err)
	}
	drain(tbl)
	if got := tbl.Capacity(); got < 1024 {
		t.Fatalf("Capacity = %d, want >= 1024", got)
	}
	for i := uint64(0); i < 100; i++ {
		if v, ok := tbl.Lookup(key20(i)); !ok || v != i {
			t.Fatalf("Lookup(%d) = (%d,%v) after stacked grows", i, v, ok)
		}
	}
	if s := tbl.Stats(); s.Grows != 2 {
		t.Fatalf("Grows = %d, want 2", s.Grows)
	}
}

// TestBatchLookupDuringMigration pins the resize-aware batch path: LookupMany
// derives candidate buckets per region, so a batch racing a migration must
// agree with Lookup.
func TestBatchLookupDuringMigration(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 4, Entries: 2048, KeyLen: 20})
	const n = 1500
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Grow(4 * tbl.Capacity()); err != nil {
		t.Fatal(err)
	}
	b := tbl.NewBatch()
	keys := make([][]byte, 64)
	results := make([]Result, 64)
	for tbl.ResizeStep(1) {
		base := uint64(0)
		for j := range keys {
			keys[j] = key20((base + uint64(j)*23) % (n + 64)) // mostly hits, some misses
		}
		hits := b.LookupMany(keys, results)
		wantHits := 0
		for j := range keys {
			wv, wok := tbl.Lookup(keys[j])
			if results[j].OK != wok || results[j].Value != wv {
				t.Fatalf("mid-migration LookupMany[%d] = %+v, Lookup says (%d,%v)", j, results[j], wv, wok)
			}
			if wok {
				wantHits++
			}
		}
		if hits != wantHits {
			t.Fatalf("mid-migration batch hits = %d, want %d", hits, wantHits)
		}
		base += 64
	}
}
