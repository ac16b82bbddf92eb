package flowserve

import (
	"testing"

	"halo/internal/hashfn"
	"halo/internal/sim"
)

// TestNarrowSignatureCollisions: a 2^20-slot shard keeps 12-bit signatures,
// so two keys with one primary bucket and one signature — and therefore one
// alternate bucket too — take a brief search to find. Their key words alone
// tell them apart: both must hit with their own values side by side, after
// either is deleted, and after a displacement moves one of them.
func TestNarrowSignatureCollisions(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 1, Entries: 1 << 20, KeyLen: 20})
	sh := tbl.shards[0]
	r := sh.regions.Load().cur
	if r.sigBits != 12 {
		t.Fatalf("sigBits = %d at %d slots, want 12", r.sigBits, r.capacity)
	}
	hash := func(i uint64) uint64 { return hashfn.Hash(hashfn.SeedPrimary, key20(i)) }
	seen := map[uint64]uint64{} // b1<<16 | sig → the first key with it
	var a, b uint64
	for i := uint64(0); ; i++ {
		b1, _, sig := r.buckets(hash(i))
		if j, ok := seen[b1<<16|uint64(sig)]; ok {
			a, b = j, i
			break
		}
		seen[b1<<16|uint64(sig)] = i
	}
	home, altA, _ := r.buckets(hash(a))

	insert := func(i uint64) {
		t.Helper()
		if err := tbl.Insert(key20(i), i+1); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	expect := func(when string, i uint64, present bool) {
		t.Helper()
		if v, ok := tbl.Lookup(key20(i)); ok != present || (ok && v != i+1) {
			t.Fatalf("%s: Lookup(%d) = (%d,%v), want (%d,%v)", when, i, v, ok, i+1, present)
		}
	}
	insert(a)
	insert(b)
	expect("side by side", a, true)
	expect("side by side", b, true)
	tbl.Delete(key20(b))
	expect("b deleted", a, true)
	expect("b deleted", b, false)
	insert(b)

	// keysIn returns the first n keys other than a, b and skip whose primary
	// bucket is bucket and whose alternate bucket passes ok.
	keysIn := func(bucket uint64, n int, skip uint64, ok func(alt uint64) bool) []uint64 {
		var out []uint64
		for i := uint64(0); len(out) < n; i++ {
			if b1, b2, _ := r.buckets(hash(i)); b1 == bucket && i != a && i != b && i != skip && ok(b2) {
				out = append(out, i)
			}
		}
		return out
	}
	all := func(uint64) bool { return true }
	// a holds entry 0 of its home bucket and b entry 1; six more keys fill
	// it. The newcomer k shares that home bucket, and its other candidate is
	// full too, so placing it must displace: the search starts at entry 0 of
	// the home bucket and moves a to its own alternate bucket, still empty.
	k := keysIn(home, 1, a, func(alt uint64) bool { return alt != altA })[0]
	_, kAlt, _ := r.buckets(hash(k))
	for _, f := range append(keysIn(home, 6, k, all), keysIn(kAlt, 8, k, all)...) {
		insert(f)
	}
	insert(k)
	if d := tbl.Stats().Displacements; d != 1 {
		t.Fatalf("inserting into two full buckets made %d displacements, want 1", d)
	}
	var kw [maxKeyWords]uint64
	keyToWords(key20(a), &kw)
	if _, idx, _, ok := sh.locate(sh.regions.Load(), &kw, tbl.keyWords, hash(a)); !ok || idx/EntriesPerBucket != altA {
		t.Fatalf("a sits in bucket %d after the displacement, want its alternate %d", idx/EntriesPerBucket, altA)
	}
	expect("a displaced", a, true)
	expect("a displaced", b, true)
	expect("a displaced", k, true)
	tbl.Delete(key20(a))
	expect("a deleted", b, true)
	expect("a deleted", a, false)
}

// checkEntries checks every live entry of sh's regions: its slot is below the
// region's capacity, and its low sigBits are that region's signature of the
// key stored in the slot, in one of the key's candidate buckets there.
func checkEntries(t *testing.T, op int, sh *shard) {
	t.Helper()
	var kw [maxKeyWords]uint64
	var kb [MaxKeyLen]byte
	rp := sh.regions.Load()
	for _, r := range [2]*region{rp.old, rp.cur} {
		if r == nil {
			continue
		}
		for i := range r.entries {
			ent := r.entries[i].Load()
			if ent == 0 {
				continue
			}
			slot := ent >> r.sigBits
			if uint64(slot) >= r.capacity {
				t.Fatalf("op %d: entry %#x names slot %d of a %d-slot region", op, ent, slot, r.capacity)
			}
			_, h, _ := sh.residentKey(r, slot, &kw, &kb)
			b1, b2, sig := r.buckets(h)
			if ent&r.sigMask != sig {
				t.Fatalf("op %d: entry %#x carries signature %#x, the %d-bit region's for its key is %#x", op, ent, ent&r.sigMask, r.sigBits, sig)
			}
			if b := uint64(i) / EntriesPerBucket; b != b1 && b != b2 {
				t.Fatalf("op %d: key of entry %#x sits in bucket %d, its candidates are %d and %d", op, ent, b, b1, b2)
			}
		}
	}
}

// TestSignatureWidthAcrossGrow runs a seeded op stream over a one-shard
// table that starts at 2^16 slots (16-bit signatures) and is grown twice
// mid-stream, to 2^17 (15 bits) and 2^18 (14 bits), so keys migrate into
// regions whose signatures are a bit narrower while inserts, deletes,
// updates, lookups, batches, scans, purges and migration ticks go on. The
// stream is checked exactly against a map (the fuzz harness's model) and,
// after every op, every live entry of old and cur by checkEntries — after
// every 16th op under the race detector, which has no second goroutine to
// watch here and makes each full-table check some 30 times dearer.
func TestSignatureWidthAcrossGrow(t *testing.T) {
	const (
		fill     = 1000
		universe = 1400
		churn    = 2500
	)
	var data []byte
	add := func(kind byte, key uint64, val byte) {
		data = append(data, kind, byte(key), byte(key>>8), val)
	}
	for i := uint64(0); i < fill; i++ {
		add(0, i, byte(i))
	}
	// Op kinds as applyOps numbers them, weighted by repetition, with inserts
	// and deletes balanced so the table stays near fill; no grow op (5), the
	// two grows come from the op hook. Rarer: a scan of any width, a purge of
	// 1/256 of the hash space.
	mix := []byte{0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 6, 6}
	rng := sim.NewRand(0x5ab1e)
	for i := 0; i < churn; i++ {
		kind := mix[rng.Uint64n(uint64(len(mix)))]
		key := rng.Uint64n(universe)
		switch rng.Uint64n(100) {
		case 0:
			kind, key = 7, rng.Uint64n(256)|rng.Uint64n(256)<<8
		case 1:
			kind, key = 8, rng.Uint64n(256)
		}
		add(kind, key, byte(rng.Uint64()))
	}

	tbl := mustNew(t, Config{Shards: 1, Entries: 1 << 16, KeyLen: 20})
	sh := tbl.shards[0]
	grows := map[int]uint64{fill + 250: 1 << 17, fill + 1000: 1 << 18}
	wantBits := uint(16)
	applyOps(t, tbl, universe, 0, data, func(op, _ int) {
		c, grow := grows[op]
		if grow {
			if err := tbl.Grow(c); err != nil {
				t.Fatalf("op %d: Grow(%d): %v", op, c, err)
			}
			wantBits--
		}
		if got := sh.regions.Load().cur.sigBits; got != wantBits {
			t.Fatalf("op %d: current region has %d signature bits, want %d", op, got, wantBits)
		}
		if !raceEnabled || grow || op%16 == 0 {
			checkEntries(t, op, sh)
		}
	})
	if s := tbl.Stats(); s.Grows != 2 || s.MigratedKeys < fill/2 || s.Deletes == 0 || s.ResizeSteps == 0 {
		t.Fatalf("stream missed a regime (2 grows, >= %d keys migrated, deletes, resize ticks): %+v", fill/2, s)
	}
	drain(tbl)
	checkEntries(t, len(data)/4, sh)
}
