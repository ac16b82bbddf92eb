package flowserve

import (
	"encoding/binary"
	"testing"

	"halo/internal/stats"
)

// key20 builds a 20-byte key (the packet header-key width) from a number.
func key20(i uint64) []byte {
	k := make([]byte, 20)
	binary.LittleEndian.PutUint64(k, i)
	binary.LittleEndian.PutUint64(k[8:], i*0x9e3779b97f4a7c15)
	return k
}

func mustNew(t testing.TB, cfg Config) *Table {
	t.Helper()
	tbl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Shards: 1, Entries: 100, KeyLen: 0},
		{Shards: 1, Entries: 100, KeyLen: 65},
		{Shards: 0, Entries: 100, KeyLen: 16},
		{Shards: 3, Entries: 100, KeyLen: 16},
		{Shards: 8192, Entries: 100, KeyLen: 16},
		{Shards: 1, Entries: 0, KeyLen: 16},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestBasicOps(t *testing.T) {
	for _, shards := range []int{1, 4} {
		tbl := mustNew(t, Config{Shards: shards, Entries: 4096, KeyLen: 20})
		const n = 2000
		for i := uint64(0); i < n; i++ {
			if err := tbl.Insert(key20(i), i*3+1); err != nil {
				t.Fatalf("shards=%d Insert(%d): %v", shards, i, err)
			}
		}
		if got := tbl.Size(); got != n {
			t.Fatalf("shards=%d Size = %d, want %d", shards, got, n)
		}
		for i := uint64(0); i < n; i++ {
			v, ok := tbl.Lookup(key20(i))
			if !ok || v != i*3+1 {
				t.Fatalf("shards=%d Lookup(%d) = (%d,%v), want (%d,true)", shards, i, v, ok, i*3+1)
			}
		}
		if _, ok := tbl.Lookup(key20(n + 5)); ok {
			t.Fatalf("shards=%d found an absent key", shards)
		}
		if err := tbl.Insert(key20(3), 99); err != ErrKeyExists {
			t.Fatalf("shards=%d duplicate insert: %v, want ErrKeyExists", shards, err)
		}
		if !tbl.Update(key20(3), 99) {
			t.Fatalf("shards=%d Update of a present key failed", shards)
		}
		if v, ok := tbl.Lookup(key20(3)); !ok || v != 99 {
			t.Fatalf("shards=%d value after Update = (%d,%v), want (99,true)", shards, v, ok)
		}
		if tbl.Update(key20(n+7), 1) {
			t.Fatalf("shards=%d Update of an absent key succeeded", shards)
		}
		if !tbl.Delete(key20(3)) {
			t.Fatalf("shards=%d Delete of a present key failed", shards)
		}
		if tbl.Delete(key20(3)) {
			t.Fatalf("shards=%d Delete of an absent key succeeded", shards)
		}
		if _, ok := tbl.Lookup(key20(3)); ok {
			t.Fatalf("shards=%d deleted key still present", shards)
		}
		if got := tbl.Size(); got != n-1 {
			t.Fatalf("shards=%d Size after delete = %d, want %d", shards, got, n-1)
		}
	}
}

func TestKeyLenMismatch(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 2, Entries: 128, KeyLen: 20})
	short := make([]byte, 5)
	if _, ok := tbl.Lookup(short); ok {
		t.Fatal("Lookup of a mismatched-length key hit")
	}
	if err := tbl.Insert(short, 1); err != ErrKeyLen {
		t.Fatalf("Insert(short key) = %v, want ErrKeyLen", err)
	}
	if tbl.Update(short, 1) || tbl.Delete(short) {
		t.Fatal("Update/Delete of a mismatched-length key succeeded")
	}
	// Wrong-length keys hash to no shard, so they must land in the
	// table-level badlen counter — never in a shard's lookup count, which
	// would skew that shard's hit ratio (pre-PR they were charged to
	// shard 0).
	s := tbl.Stats()
	if s.BadLenLookups != 1 {
		t.Fatalf("mismatched-length lookup accounting = %+v, want BadLenLookups 1", s)
	}
	if s.Lookups != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("mismatched-length lookup leaked into shard counters: %+v", s)
	}
}

// TestFillForcesDisplacement fills a single-shard table close to capacity so
// insertion must run cuckoo displacement chains, then verifies every key.
func TestFillForcesDisplacement(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 1024, KeyLen: 20})
	inserted := make(map[uint64]uint64)
	for i := uint64(0); i < 1024; i++ {
		err := tbl.Insert(key20(i), i+100)
		if err == ErrTableFull {
			break
		}
		if err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
		inserted[i] = i + 100
	}
	if len(inserted) < 900 {
		t.Fatalf("only %d of 1024 slots filled before ErrTableFull", len(inserted))
	}
	if tbl.Stats().Displacements == 0 {
		t.Fatal("filling to ~100%% load never displaced an entry")
	}
	for i, want := range inserted {
		if v, ok := tbl.Lookup(key20(i)); !ok || v != want {
			t.Fatalf("after displacement, Lookup(%d) = (%d,%v), want (%d,true)", i, v, ok, want)
		}
	}
}

func TestLookupManyMatchesLookup(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 8, Entries: 8192, KeyLen: 20})
	const n = 4000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i^0xabcd); err != nil {
			t.Fatal(err)
		}
	}
	b := tbl.NewBatch()
	pr := tbl.NewPinnedReader()
	const batchSize = 93 // deliberately not a power of two
	keys := make([][]byte, batchSize)
	results := make([]Result, batchSize)
	pooled := make([]Result, batchSize)
	pinned := make([]Result, batchSize)
	for lo := uint64(0); lo < n+200; lo += batchSize {
		for j := range keys {
			keys[j] = key20(lo + uint64(j)*2) // half present, half absent beyond n
		}
		hits := b.LookupMany(keys, results)
		poolHits := tbl.LookupMany(keys, pooled)
		pinHits := pr.LookupMany(keys, pinned)
		if pinHits != poolHits {
			t.Fatalf("PinnedReader returned %d hits, Table returned %d", pinHits, poolHits)
		}
		wantHits := 0
		for j := range keys {
			wv, wok := tbl.Lookup(keys[j])
			if results[j].OK != wok || results[j].Value != wv {
				t.Fatalf("LookupMany[%d] = (%d,%v), Lookup says (%d,%v)", j, results[j].Value, results[j].OK, wv, wok)
			}
			if pooled[j] != results[j] {
				t.Fatalf("Table.LookupMany[%d] = %+v, Batch says %+v", j, pooled[j], results[j])
			}
			if pinned[j] != results[j] {
				t.Fatalf("PinnedReader.LookupMany[%d] = %+v, Batch says %+v", j, pinned[j], results[j])
			}
			if wok {
				wantHits++
			}
		}
		if hits != wantHits {
			t.Fatalf("LookupMany returned %d hits, want %d", hits, wantHits)
		}
		if poolHits != hits {
			t.Fatalf("Table.LookupMany returned %d hits, Batch returned %d", poolHits, hits)
		}
	}
}

func TestLookupManyMixedKeyLengths(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 4, Entries: 512, KeyLen: 20})
	if err := tbl.Insert(key20(1), 11); err != nil {
		t.Fatal(err)
	}
	b := tbl.NewBatch()
	keys := [][]byte{key20(1), make([]byte, 3), key20(2), nil}
	results := make([]Result, len(keys))
	if hits := b.LookupMany(keys, results); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if !results[0].OK || results[0].Value != 11 {
		t.Fatalf("present key = %+v, want (11,true)", results[0])
	}
	for _, j := range []int{1, 2, 3} {
		if results[j] != (Result{}) {
			t.Fatalf("key %d = %+v, want a miss", j, results[j])
		}
	}
	if s := tbl.Stats(); s.Lookups != 2 || s.BadLenLookups != 2 {
		t.Fatalf("batch accounting = %d lookups + %d badlen, want 2 + 2 (mismatched lengths are table-level)",
			s.Lookups, s.BadLenLookups)
	}
}

func TestLookupManyEmpty(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 2, Entries: 128, KeyLen: 20})
	b := tbl.NewBatch()
	if hits := b.LookupMany(nil, nil); hits != 0 {
		t.Fatalf("empty batch returned %d hits", hits)
	}
	if hits := tbl.LookupMany(nil, nil); hits != 0 {
		t.Fatalf("empty pooled batch returned %d hits", hits)
	}
}

func TestShardSpread(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 8, Entries: 16384, KeyLen: 20})
	const n = 8000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for si, sh := range tbl.shards {
		got := sh.size.Load()
		if got < n/8/2 || got > n/8*2 {
			t.Fatalf("shard %d holds %d of %d keys, want ~%d", si, got, n, n/8)
		}
	}
}

func TestCollectInto(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 4, Entries: 1024, KeyLen: 20})
	for i := uint64(0); i < 100; i++ {
		if err := tbl.Insert(key20(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 150; i++ {
		tbl.Lookup(key20(i))
	}
	tbl.Delete(key20(0))
	snap := stats.NewSnapshot()
	tbl.CollectInto(snap)
	checks := map[string]uint64{
		"flowserve.shards":  4,
		"flowserve.size":    99,
		"flowserve.lookups": 150,
		"flowserve.hits":    100,
		"flowserve.misses":  50,
		"flowserve.inserts": 100,
		"flowserve.deletes": 1,
	}
	for name, want := range checks {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	// The full counter family is present (stable schema, zeros included).
	for _, name := range []string{
		"flowserve.lookup.retries", "flowserve.lookup.lock_fallbacks",
		"flowserve.lookup.badlen", "flowserve.capacity", "flowserve.bytes",
		"flowserve.insert.exists", "flowserve.insert.full",
		"flowserve.updates", "flowserve.displacements",
		"flowserve.batch.calls", "flowserve.batch.keys",
	} {
		if _, present := snap.Counters[name]; !present {
			t.Fatalf("counter %s missing from snapshot", name)
		}
	}
}
