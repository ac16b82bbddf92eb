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
	if sh.sigBits != 12 {
		t.Fatalf("sigBits = %d at %d slots, want 12", sh.sigBits, sh.capacity)
	}
	hash := func(i uint64) uint64 { return hashfn.Hash(hashfn.SeedPrimary, key20(i)) }
	seen := map[uint64]uint64{} // b1<<16 | sig → the first key with it
	var a, b uint64
	for i := uint64(0); ; i++ {
		b1, _, sig := hashfn.Buckets(hash(i), sh.bucketCount(), sh.sigBits)
		if j, ok := seen[b1<<16|uint64(sig)]; ok {
			a, b = j, i
			break
		}
		seen[b1<<16|uint64(sig)] = i
	}
	home, altA, _ := hashfn.Buckets(hash(a), sh.bucketCount(), sh.sigBits)

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
			if b1, b2, _ := hashfn.Buckets(hash(i), sh.bucketCount(), sh.sigBits); b1 == bucket && i != a && i != b && i != skip && ok(b2) {
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
	_, kAlt, _ := hashfn.Buckets(hash(k), sh.bucketCount(), sh.sigBits)
	for _, f := range append(keysIn(home, 6, k, all), keysIn(kAlt, 8, k, all)...) {
		insert(f)
	}
	insert(k)
	if d := tbl.Stats().Displacements; d != 1 {
		t.Fatalf("inserting into two full buckets made %d displacements, want 1", d)
	}
	var kw [maxKeyWords]uint64
	keyToWords(key20(a), &kw)
	if idx, _, ok := sh.locate(&kw, hash(a)); !ok || idx/EntriesPerBucket != altA {
		t.Fatalf("a sits in bucket %d after the displacement, want its alternate %d", idx/EntriesPerBucket, altA)
	}
	expect("a displaced", a, true)
	expect("a displaced", b, true)
	expect("a displaced", k, true)
	tbl.Delete(key20(a))
	expect("a deleted", b, true)
	expect("a deleted", a, false)
}

// checkEntries checks every live entry of sh, a shard of tbl: its slot is
// below the shard's capacity, and its low sigBits are the shard's signature
// of the key stored in the slot, in one of the key's candidate buckets.
func checkEntries(t *testing.T, op int, tbl *Table, sh *shard) {
	t.Helper()
	var kw [maxKeyWords]uint64
	var kb [MaxKeyLen]byte
	for i := range sh.entries {
		ent := sh.entries[i].Load()
		if ent == 0 {
			continue
		}
		slot := ent >> sh.sigBits
		if uint64(slot) >= sh.capacity {
			t.Fatalf("op %d: entry %#x names slot %d of a %d-slot shard", op, ent, slot, sh.capacity)
		}
		_, h, _ := sh.residentKey(slot, tbl.keyLen, &kw, &kb)
		b1, b2, sig := hashfn.Buckets(h, sh.bucketCount(), sh.sigBits)
		if ent&sh.sigMask != uint32(sig) {
			t.Fatalf("op %d: entry %#x carries signature %#x, the %d-bit shard's for its key is %#x", op, ent, ent&sh.sigMask, sh.sigBits, sig)
		}
		if b := uint64(i) / EntriesPerBucket; b != b1 && b != b2 {
			t.Fatalf("op %d: key of entry %#x sits in bucket %d, its candidates are %d and %d", op, ent, b, b1, b2)
		}
	}
}

// TestSignatureWidthAcrossGrow runs one seeded op stream over fresh
// one-shard tables of 2^16, 2^17 and 2^18 slots, whose signatures are 16, 15
// and 14 bits wide: the widths a table grown from 2^16 slots passed through
// when shards could grow. Inserts, deletes, updates, lookups, batches, scans
// and purges go on in each. The stream is checked exactly against a map (the
// fuzz harness's model) after every op, and every entry by checkEntries after
// every 4th op and at the end — every 64th under the race detector, which
// has no second goroutine to watch here and makes each full-table check some
// 30 times dearer. (A check scans the whole bucket array, most of it empty
// at these sizes; checking all three tables after every op took 3 s.)
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
	// and deletes balanced so the table stays near fill. Rarer: a scan of any
	// width, a purge of 1/256 of the hash space.
	mix := []byte{0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4}
	rng := sim.NewRand(0x5ab1e)
	for i := 0; i < churn; i++ {
		kind := mix[rng.Uint64n(uint64(len(mix)))]
		key := rng.Uint64n(universe)
		switch rng.Uint64n(100) {
		case 0:
			kind, key = 5, rng.Uint64n(256)|rng.Uint64n(256)<<8
		case 1:
			kind, key = 6, rng.Uint64n(256)
		}
		add(kind, key, byte(rng.Uint64()))
	}

	for _, tc := range []struct {
		slots   uint64
		sigBits uint8
	}{{1 << 16, 16}, {1 << 17, 15}, {1 << 18, 14}} {
		tbl := mustNew(t, Config{Shards: 1, Entries: tc.slots, KeyLen: 20})
		sh := tbl.shards[0]
		if got := sh.sigBits; got != tc.sigBits {
			t.Fatalf("%d slots: shard has %d signature bits, want %d", tc.slots, got, tc.sigBits)
		}
		every := 4
		if raceEnabled {
			every = 64
		}
		applyOps(t, tbl, universe, data, func(op, _ int) {
			if op%every == 0 {
				checkEntries(t, op, tbl, sh)
			}
		})
		if s := tbl.Stats(); s.Deletes == 0 || s.Updates == 0 {
			t.Fatalf("%d slots: stream missed a regime (deletes, updates): %+v", tc.slots, s)
		}
		checkEntries(t, len(data)/4, tbl, sh)
	}
}
